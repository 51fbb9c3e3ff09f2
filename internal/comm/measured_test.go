package comm

import (
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
)

// tickClock is a scripted Clock for deterministic measured-mode tests:
// every reading advances shared time by exactly one second. Shared by all
// ranks of a run, like the real WallClock.
type tickClock struct{ t int64 }

func (c *tickClock) Now() float64 { return float64(atomic.AddInt64(&c.t, 1)) }

// measuredParityBody is a small but communication-rich SPMD program:
// point-to-point exchange with a neighbor, a reduction, a barrier, and
// rank-skewed compute.
func measuredParityBody(sums []float64) func(p *Proc) {
	return func(p *Proc) {
		p.Compute(1e-3 * float64(p.Rank()+1))
		if p.Size() > 1 {
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() + p.Size() - 1) % p.Size()
			p.SendF64(next, 3, []float64{float64(p.Rank()), 2, 3})
			got := p.RecvF64(prev, 3)
			p.Compute(1e-6 * got[0])
		}
		v := p.AllReduceF64(OpSum, []float64{float64(p.Rank() + 1)})
		p.Barrier()
		sums[p.Rank()] = v[0]
	}
}

// TestRunMeasuredVirtualParity pins the core contract of measured mode:
// wall-clock instrumentation never perturbs the virtual-time simulation.
// Clocks, Stats and program results must be bit-identical to comm.Run.
func TestRunMeasuredVirtualParity(t *testing.T) {
	m := costmodel.IPSC860()
	for _, n := range []int{1, 2, 4} {
		wantSums := make([]float64, n)
		want := Run(n, m, measuredParityBody(wantSums))
		gotSums := make([]float64, n)
		got := RunMeasured(n, m, measuredParityBody(gotSums))
		for r := 0; r < n; r++ {
			if got.Clocks[r] != want.Clocks[r] {
				t.Errorf("n=%d rank %d: measured clock %v != modeled %v", n, r, got.Clocks[r], want.Clocks[r])
			}
			if got.Stats[r] != want.Stats[r] {
				t.Errorf("n=%d rank %d: measured stats %+v != modeled %+v", n, r, got.Stats[r], want.Stats[r])
			}
			if gotSums[r] != wantSums[r] {
				t.Errorf("n=%d rank %d: result %v != %v", n, r, gotSums[r], wantSums[r])
			}
		}
		if want.Measured != nil || want.Workers != 0 {
			t.Errorf("n=%d: modeled run carries measured accounting", n)
		}
		if len(got.Measured) != n || got.Workers < 1 {
			t.Fatalf("n=%d: measured run reports %d measured ranks, %d workers", n, len(got.Measured), got.Workers)
		}
		for r, mm := range got.Measured {
			if mm.Wall <= 0 || mm.ClockSamples < 2 {
				t.Errorf("n=%d rank %d: implausible measurement %+v", n, r, mm)
			}
		}
	}
}

// TestRunMeasuredMultiplexed forces every rank onto a single worker slot:
// the barrier-aware scheduler must keep collectives and blocking receives
// deadlock-free while never running two ranks at once, and the run must stay
// bit-identical to the modeled one.
func TestRunMeasuredMultiplexed(t *testing.T) {
	m := costmodel.IPSC860()
	for _, n := range []int{2, 4} {
		wantSums, sums := make([]float64, n), make([]float64, n)
		want := Run(n, m, measuredParityBody(wantSums))
		rep := RunMeasuredTransport(n, m, NewMemTransport(n), MeasureOpts{Workers: 1}, measuredParityBody(sums))
		if rep.Workers != 1 {
			t.Fatalf("n=%d: Workers = %d, want 1", n, rep.Workers)
		}
		for r, s := range sums {
			if s != float64(n*(n+1)/2) || s != wantSums[r] {
				t.Errorf("n=%d rank %d: reduction result %v, want %d", n, r, s, n*(n+1)/2)
			}
			if rep.Clocks[r] != want.Clocks[r] || rep.Stats[r] != want.Stats[r] {
				t.Errorf("n=%d rank %d: measured clock/stats %v %+v != modeled %v %+v", n, r, rep.Clocks[r], rep.Stats[r], want.Clocks[r], want.Stats[r])
			}
		}
		if rep.MaxMeasuredWall() <= 0 {
			t.Errorf("n=%d: no measured wall time recorded", n)
		}
	}
}

// TestRunMeasuredScriptedClock checks the exact accounting on one rank with
// a deterministic clock: body start/end and each WallNow take one reading,
// so every duration is known in advance.
func TestRunMeasuredScriptedClock(t *testing.T) {
	c := &tickClock{}
	rep := RunMeasuredTransport(1, costmodel.Uniform(1e-6), NewMemTransport(1), MeasureOpts{Clock: c}, func(p *Proc) {
		if !p.MeasuredMode() {
			t.Error("MeasuredMode() = false inside RunMeasured")
		}
		t0 := p.WallNow() // reading 2
		p.Compute(1e-3)
		p.ChargePhaseWall("inspector", p.WallNow()-t0) // reading 3
		for i := 0; i < 2; i++ {
			t0 = p.WallNow()                              // readings 4, 6
			p.ChargePhaseWall("executor", p.WallNow()-t0) // readings 5, 7
		}
	})
	mm := rep.Measured[0]
	// Readings: 1 body start, 2..7 intervals, 8 body end.
	if mm.ClockSamples != 8 {
		t.Errorf("ClockSamples = %d, want 8", mm.ClockSamples)
	}
	if mm.Wall != 7 {
		t.Errorf("Wall = %v, want 7", mm.Wall)
	}
	if mm.Phases["inspector"] != 1 {
		t.Errorf(`Phases["inspector"] = %v, want 1`, mm.Phases["inspector"])
	}
	if mm.Phases["executor"] != 2 {
		t.Errorf(`Phases["executor"] = %v, want 2 (two intervals of 1)`, mm.Phases["executor"])
	}
	if rep.MeasuredPhaseMax("executor") != 2 || rep.MeasuredPhaseMax("nosuch") != 0 {
		t.Errorf("MeasuredPhaseMax wrong: %v / %v", rep.MeasuredPhaseMax("executor"), rep.MeasuredPhaseMax("nosuch"))
	}
}

// TestMeasuredRecvSamplingAmortized pins the amortized sampling contract: a
// burst of k back-to-back receives takes k+1 readings (the end reading of
// one receive is the start reading of the next), not 2k — and a send in
// between invalidates the shared sample, because encode/copy time must not
// be misattributed to receive wait.
func TestMeasuredRecvSamplingAmortized(t *testing.T) {
	const k = 10
	c := &tickClock{}
	var recvSamples int64
	var commWall float64
	rep := RunMeasuredTransport(2, costmodel.Uniform(1e-6), NewMemTransport(2), MeasureOpts{Clock: c}, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.SendF64(1, 7, []float64{float64(i)})
			}
			return
		}
		before := p.Measured().ClockSamples
		for i := 0; i < k; i++ {
			p.RecvF64(0, 7)
		}
		recvSamples = p.Measured().ClockSamples - before
		commWall = p.Measured().CommWall
	})
	// k receives: one start reading for the first, one end reading each.
	if recvSamples != k+1 {
		t.Errorf("receive burst took %d readings, want %d", recvSamples, k+1)
	}
	// Every receive spans at least one tick of the shared clock.
	if commWall < k {
		t.Errorf("CommWall = %v, want >= %d", commWall, k)
	}
	if rep.MeanMeasuredCommWall() <= 0 {
		t.Error("MeanMeasuredCommWall() = 0")
	}

	// Same burst with a send between receives: the cached sample is
	// invalidated, so the next receive takes a fresh start reading.
	c2 := &tickClock{}
	var samples int64
	RunMeasuredTransport(2, costmodel.Uniform(1e-6), NewMemTransport(2), MeasureOpts{Clock: c2}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendF64(1, 7, []float64{1})
			p.SendF64(1, 7, []float64{2})
			p.RecvF64(1, 8)
			return
		}
		before := p.Measured().ClockSamples
		p.RecvF64(0, 7)      // start + end: 2 readings
		p.SendF64(0, 8, nil) // invalidates the cached sample
		p.RecvF64(0, 7)      // start + end again: 2 readings
		samples = p.Measured().ClockSamples - before
	})
	if samples != 4 {
		t.Errorf("recv/send/recv took %d readings, want 4 (send must invalidate the cached sample)", samples)
	}
}

// TestMeasuredTimerPathZeroAllocs checks the steady-state allocation
// discipline of the wall-clock instrumentation itself: once the Phases map
// holds its keys, a charged interval and a measured ping-pong allocate
// nothing beyond what the modeled path does (which is nothing — see
// schedule.TestGatherScatterSteadyStateAllocs).
func TestMeasuredTimerPathZeroAllocs(t *testing.T) {
	const runs = 100
	perRank := make([]float64, 2)
	pingpong := make([]float64, 2)
	RunMeasured(2, costmodel.Uniform(1e-9), func(p *Proc) {
		p.ChargePhaseWall("warm", 1) // allocate the Phases map once
		perRank[p.Rank()] = testing.AllocsPerRun(runs, func() {
			t0 := p.WallNow()
			p.ChargePhaseWall("warm", p.WallNow()-t0)
		})

		peer := 1 - p.Rank()
		buf := []float64{1, 2, 3}
		var in []float64
		body := func() {
			if p.Rank() == 0 {
				p.SendF64Buf(peer, 5, buf)
				in = p.RecvF64Into(peer, 6, in)
			} else {
				in = p.RecvF64Into(peer, 5, in)
				p.SendF64Buf(peer, 6, buf)
			}
		}
		for i := 0; i < 5; i++ {
			body() // warm arena and mailbox
		}
		pingpong[p.Rank()] = testing.AllocsPerRun(runs, body)
	})
	for r := 0; r < 2; r++ {
		if perRank[r] != 0 {
			t.Errorf("rank %d: charged interval allocates %v per op, want 0", r, perRank[r])
		}
		if pingpong[r] != 0 {
			t.Errorf("rank %d: measured ping-pong allocates %v per op, want 0", r, pingpong[r])
		}
	}
}
