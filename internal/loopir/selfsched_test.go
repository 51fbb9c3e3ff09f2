package loopir

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// skewedCSR builds a global CSR whose head rows are much denser than the
// tail, so a BLOCK distribution overloads rank 0.
func skewedCSR(n, headDeg, tailDeg int, seed int64) (ptr, vals []int32) {
	rng := rand.New(rand.NewSource(seed))
	ptr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		deg := tailDeg
		if i < n/4 {
			deg = headDeg
		}
		deg += rng.Intn(3)
		for d := 0; d < deg; d++ {
			vals = append(vals, int32(rng.Intn(n)))
		}
		ptr[i+1] = int32(len(vals))
	}
	return ptr, vals
}

// TestSelfSchedImprovesSkewedMakespan pins the point of the mode: on a
// heavily skewed layout the cost-charged steal plan lowers the virtual
// makespan relative to the static executor.
func TestSelfSchedImprovesSkewedMakespan(t *testing.T) {
	const n = 256
	gptr, gvals := skewedCSR(n, 24, 1, 3)
	x0 := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	makespan := func(self bool) (clk float64, steals int64) {
		var stolen atomic.Int64
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			e := newLone(p, n, 200, gptr, gvals, x0)
			ctl := adapt.NewController()
			if self {
				e.loop.SelfSched(ctl)
			}
			for range 4 {
				e.loop.Execute()
			}
			stolen.Add(int64(len(ctl.Work())))
		})
		return rep.MaxClock(), stolen.Load()
	}
	staticClk, _ := makespan(false)
	adaptClk, steals := makespan(true)
	if steals == 0 {
		t.Fatal("skewed layout produced no steals")
	}
	if adaptClk >= staticClk {
		t.Errorf("self-scheduling makespan %.6f >= static %.6f", adaptClk, staticClk)
	}
}

// TestAdaptSteadyStateAllocs pins the allocation discipline on every
// spelling of the executor skeleton: once warm, an Execute — self-scheduled
// (chunking, planning AllReduce, steal traffic, replay), blocking,
// split-phase, both together, or a fused two-loop run, each with the first
// loop compiled from its pair body or its row body — allocates nothing on
// any rank; in particular nothing proportional to the gather/contribution
// buffers, which persist on the loop. The programs are the executor
// oracle's.
func TestAdaptSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		nprocs int
		s      shape
		m      mode
	}{
		{4, shape{}, selfsched},
		{2, shape{}, blocking},
		{2, shape{}, overlap},
		{2, shape{}, both},
		{2, shape{two: true, shared: true, fused: true}, blocking},
	} {
		for _, rows := range []bool{false, true} {
			// The pair form keeps the list as drawn, self pairs included (the
			// aliased arm of applyOwned, alias chunks under self-scheduling);
			// the row form, which rejects them, runs the list without. Their
			// one-entry rows (delta slots, stolen pairs) index through an
			// array that lives on the loop, not one made per call.
			s := tc.s
			s.rows, s.selfFree = rows, rows
			in := newInstance(s, 11)
			if _, vals := dropSelf(in.ptr, in.jj[0]); !rows && len(vals) == len(in.jj[0]) {
				t.Fatal("list has no self pair; the pair-form cases do not cover the aliased arm")
			}
			label := fmt.Sprintf("%+v %s on %d ranks", s, tc.m.name, tc.nprocs)
			got := make([]float64, tc.nprocs)
			var steals atomic.Int64
			comm.Run(tc.nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				tr := build(t.Errorf, p, s, tc.m, in, 0)
				for range 5 {
					tr.exec()
				}
				got[p.Rank()] = testing.AllocsPerRun(20, tr.exec)
				if tr.ctl != nil {
					steals.Add(int64(len(tr.ctl.Work())))
				}
			})
			if tc.nprocs == 4 && steals.Load() == 0 {
				t.Fatalf("%s: steady state has no steals; the alloc test does not cover the steal path", label)
			}
			for r, a := range got {
				if a != 0 {
					t.Errorf("%s: rank %d: %v allocs/op in Execute steady state, want 0", label, r, a)
				}
			}
		}
	}
}
