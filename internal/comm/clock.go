package comm

import "time"

// Clock is the measured-time source of a run. The modeled runners (Run,
// RunTransport) use no clock at all — every reported number is virtual time
// charged through the cost model — while RunMeasured threads a Clock through
// every Proc so phase regions and receive waits are timed for real.
// Implementations must be safe for concurrent use by all ranks, must not
// allocate, and must be monotonic.
type Clock interface {
	// Now returns seconds elapsed since the clock's epoch.
	Now() float64
}

// WallClock reads the host's monotonic clock: Now is time.Since over a
// fixed epoch, which on mainstream platforms is a vDSO read (no syscall)
// and performs no allocation. The per-message amortization lives one level
// up, in Proc: consecutive receives share one sample (the end reading of a
// receive doubles as the start reading of the next), so steady-state
// executor loops take roughly one reading per message instead of two; see
// Measured.ClockSamples.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a wall clock whose epoch is now.
func NewWallClock() *WallClock {
	return &WallClock{epoch: time.Now()}
}

// Now implements Clock.
func (c *WallClock) Now() float64 {
	return time.Since(c.epoch).Seconds()
}

// Measured is one rank's wall-clock accounting from a RunMeasured run, in
// real seconds. It exists alongside — never instead of — the virtual
// accounting in Stats: measured mode changes nothing about how virtual
// clocks advance, so Clocks and Stats stay bit-identical to a modeled run
// of the same program.
type Measured struct {
	// Wall is the rank body's total measured duration, including any time
	// spent waiting for a worker slot when ranks are multiplexed.
	Wall float64
	// CommWall is measured time inside blocking receives: transport wait,
	// payload decode between consecutive receives of a collective, and any
	// wait to reacquire a worker slot after the message arrived.
	CommWall float64
	// Phases accumulates the measured time charged through ChargePhaseWall
	// by the interval timers (core.PhaseTimer feeds the same keys it uses for
	// virtual time, so modeled and measured breakdowns line up).
	Phases map[string]float64
	// ClockSamples counts wall-clock readings taken on this rank. The
	// amortized sampling in the receive path keeps it well below two per
	// message; tests pin that down.
	ClockSamples int64
}
