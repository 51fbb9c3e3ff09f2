package comm

import (
	"fmt"
	"math"

	"repro/internal/costmodel"
)

// Stats accumulates per-processor accounting in virtual seconds and raw
// message counts. ComputeTime is time spent in application work (Compute,
// ComputeFlops, ComputeMem); CommTime is time spent inside communication
// calls, including waiting for messages, matching the paper's definition of
// communication time.
type Stats struct {
	ComputeTime float64
	commTime    float64
	MsgsSent    int64
	BytesSent   int64
	MsgsRecv    int64
	BytesRecv   int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ComputeTime += other.ComputeTime
	s.commTime += other.commTime
	s.MsgsSent += other.MsgsSent
	s.BytesSent += other.BytesSent
	s.MsgsRecv += other.MsgsRecv
	s.BytesRecv += other.BytesRecv
}

// Sub returns s minus other, used to compute per-phase deltas.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		ComputeTime: s.ComputeTime - other.ComputeTime,
		commTime:    s.commTime - other.commTime,
		MsgsSent:    s.MsgsSent - other.MsgsSent,
		BytesSent:   s.BytesSent - other.BytesSent,
		MsgsRecv:    s.MsgsRecv - other.MsgsRecv,
		BytesRecv:   s.BytesRecv - other.BytesRecv,
	}
}

// Proc is one logical processor of the simulated machine. It is owned by a
// single goroutine; methods must not be called concurrently.
type Proc struct {
	rank  int
	size  int
	tr    Transport
	m     *costmodel.Machine
	clock float64
	stats Stats
	// arena recycles payload buffers for SendPacked and the collectives'
	// typed sends. Buffers flow out through send and come back through
	// Message.Release — from the TCP writer once the payload is copied to
	// the socket, or from the receiving rank once the payload is decoded or
	// its view released (the in-memory transport aliases payloads, so only
	// the receiver knows when the bytes are dead). Proc itself is
	// single-goroutine; the arena carries the lock because releases arrive
	// from other goroutines.
	arena byteArena
	// wire is the message a Pack* call handed out and SendPacked sends,
	// and the payload a Recv*View call handed out and ReleaseView gives up
	// (packed.go); nil until the rank's first such call.
	wire *wireState

	// Measured-mode state, set by RunMeasured. wall is nil on modeled runs,
	// which keeps every measured branch a single pointer test on the hot
	// path. slot is non-nil only when ranks are multiplexed onto fewer
	// worker slots than ranks; blocking receives yield it (see slotSched).
	wall Clock
	slot *rankSlot
	meas Measured
	// lastSample amortizes wall-clock reads across consecutive receives:
	// the end reading of one receive serves as the start reading of the
	// next unless compute or a send ran in between, which set it to
	// staleSample. (A NaN rather than a flag keeps Proc in its allocation
	// size class.)
	lastSample float64

	// The phase ledger (phase.go): virtual time per phase, the spans in
	// order, and the virtual and measured clock at the last boundary.
	phases              map[string]float64
	spans               []Span
	markClock, markWall float64
}

// staleSample marks Proc.lastSample as no reading to reuse.
var staleSample = math.NaN()

// newProc constructs a processor endpoint. Most code should use Run instead.
func newProc(rank, size int, tr Transport, m *costmodel.Machine) *Proc {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, size))
	}
	return &Proc{rank: rank, size: size, tr: tr, m: m, lastSample: staleSample}
}

// Rank returns this processor's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processors.
func (p *Proc) Size() int { return p.size }

// Machine returns the cost model in effect.
func (p *Proc) Machine() *costmodel.Machine { return p.m }

// Clock returns the current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the accumulated statistics.
func (p *Proc) Stats() Stats { return p.stats }

// RestoreClock fast-forwards the virtual clock to c (it must not move
// backwards) without charging the jump to compute or communication time.
// Checkpoint restore uses this so a resumed run continues the saved run's
// virtual timeline.
func (p *Proc) RestoreClock(c float64) {
	if c < p.clock {
		panic(fmt.Sprintf("comm: RestoreClock to %g would move clock backwards from %g", c, p.clock))
	}
	p.clock = c
}

// MeasuredMode reports whether the run records wall-clock measurements
// (true only under RunMeasured).
func (p *Proc) MeasuredMode() bool { return p.wall != nil }

// Measured returns a copy of the rank's wall-clock accounting so far (the
// Phases map is shared). Zero-valued on modeled runs.
func (p *Proc) Measured() Measured { return p.meas }

// sampleWall takes a fresh (counted) wall-clock reading. Callers must have
// checked p.wall != nil.
func (p *Proc) sampleWall() float64 {
	p.meas.clockSamples++
	return p.wall.Now()
}

// WallNow returns real seconds since the run epoch, or 0 on modeled runs.
func (p *Proc) WallNow() float64 {
	if p.wall == nil {
		return 0
	}
	return p.sampleWall()
}

// Compute advances the virtual clock by cost seconds of application work.
func (p *Proc) Compute(cost float64) {
	if cost < 0 {
		panic("comm: negative compute cost")
	}
	p.clock += cost
	p.stats.ComputeTime += cost
	// Real work happened: the cached receive-path wall sample is stale.
	p.lastSample = staleSample
}

// ComputeFlops accounts n floating-point operations.
func (p *Proc) ComputeFlops(n int) { p.Compute(p.m.FlopCost(n)) }

// ComputeMem accounts n irregular memory operations (hash probes, table
// lookups, indirection dereferences).
func (p *Proc) ComputeMem(n int) { p.Compute(p.m.MemCost(n)) }

// Send transmits data to rank `to` with the given tag. The sender is busy
// for the per-message overhead Alpha; the message arrives at the receiver at
// departure + Alpha + Beta*len(data). Send, SendStart and Recv are the only
// exported calls that carry raw bytes (a timing probe needs a payload of
// any size); everything else speaks typed lists — packed sends and viewed
// receives (packed.go) point to point, typed slices in the collectives — and
// the wire format stays inside this package.
//
// Ownership: data passes to the receiver, which may alias it long after
// Send returned, so a sender must never write to or recycle a buffer it has
// sent. Packed sends and the collectives stage through the send arena
// instead.
func (p *Proc) Send(to, tag int, data []byte) { p.send(to, tag, data, nil) }

// send is the shared transmit path. pool is non-nil only for arena-staged
// payloads (packed and collective sends); the virtual-time accounting is
// identical either way, so pooled sends are invisible to the cost model.
func (p *Proc) send(to, tag int, data []byte, pool *byteArena) {
	p.checkPeer("send to", to)
	if to == p.rank {
		panic("comm: send to self (use local copy instead)")
	}
	depart := p.clock
	p.clock += p.m.Alpha
	p.stats.commTime += p.m.Alpha
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(len(data))
	p.lastSample = staleSample // encode/copy time must not count as receive wait
	p.tr.Send(Message{
		From:   p.rank,
		To:     to,
		Tag:    tag,
		Arrive: depart + p.m.MsgCost(len(data)),
		Data:   data,
		pool:   pool,
	})
}

// checkPeer refuses a peer rank outside [0, Size) before any transport sees
// it: the in-memory transport would otherwise index another rank's mailbox,
// and TCP would die on a raw index error.
func (p *Proc) checkPeer(op string, r int) {
	if r < 0 || r >= p.size {
		panic(fmt.Sprintf("comm: %s bad rank %d (n=%d)", op, r, p.size))
	}
}

// recvMsg blocks until a message from `from` with the given tag is
// available. Waiting time (virtual) is accounted as communication time; in
// measured mode the real blocking window is additionally charged to
// Measured.CommWall with amortized clock sampling (consecutive receives
// share one reading), and a multiplexed rank yields its worker slot for
// the duration of the wait so runnable peers can use it.
func (p *Proc) recvMsg(from, tag int) Message {
	p.checkPeer("recv from", from)
	if from == p.rank {
		panic("comm: recv from self")
	}
	var t0 float64
	if p.wall != nil {
		if t0 = p.lastSample; math.IsNaN(t0) {
			t0 = p.sampleWall()
		}
		if p.slot != nil {
			p.slot.release()
		}
	}
	m := p.tr.Recv(p.rank, from, tag)
	if p.wall != nil {
		if p.slot != nil {
			p.slot.acquire()
		}
		t1 := p.sampleWall()
		p.meas.CommWall += t1 - t0
		p.lastSample = t1
	}
	if m.Arrive > p.clock {
		p.stats.commTime += m.Arrive - p.clock
		p.clock = m.Arrive
	}
	p.stats.MsgsRecv++
	p.stats.BytesRecv += int64(len(m.Data))
	return m
}

// Recv blocks until a message from `from` with the given tag is available
// and returns its payload. The caller owns the returned bytes; payloads
// that were staged through a send arena are not reclaimed on this path.
func (p *Proc) Recv(from, tag int) []byte {
	return p.recvMsg(from, tag).Data
}

// sendWords is the collectives' typed send: xs is encoded into a payload
// drawn from the send arena (a memmove on a little-endian host; what a
// Pack*, a copy of xs and SendPacked do), so xs may be reused as soon as the
// call returns and the send does not allocate in steady state. The modeled
// cost is that of Send with the encoded bytes.
func sendWords[T word](p *Proc, to, tag int, xs []T) {
	p.send(to, tag, appendWords(p.arena.get(len(xs)*sizeOf[T]()), xs), &p.arena)
}

// recvWords is the collectives' typed receive: it decodes the payload into
// dst's backing array (reallocating only if it is too small; dst may be
// nil), returns the decoded slice, and gives a payload staged through a send
// arena back to it, completing the pooled round trip.
func recvWords[T word](p *Proc, from, tag int, dst []T) []T {
	m := p.recvMsg(from, tag)
	dst = decodeInto(dst, m.Data)
	m.Release()
	return dst
}
