package loopir

import (
	"math"
	"math/rand"
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

// sumTrial runs a sum loop (compiled from its row body if rows) `execs`
// times, returning per-rank Float64bits of f, the executor data-motion
// stats, and the run makespan. steals reports the size of the global steal
// plan seen on rank 0's last Execute.
func sumTrial(nprocs, n, w, execs, flops int, gptr, gvals []int32, x0 []float64, rows, self bool) (bits [][]uint64, motion []comm.Stats, clk float64, steals int) {
	bits = make([][]uint64, nprocs)
	motion = make([]comm.Stats, nprocs)
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(w)
		f := dec.AlignReal(w)
		x.SetByGlobal(func(g int32, c []float64) {
			for cc := range c {
				c[cc] = x0[int(g)*w+cc]
			}
		})
		ind := dec.AlignIndCSR()
		ptr, vals := localizeCSR(p, n, gptr, gvals)
		ind.SetCSR(ptr, vals)
		loop := newFigure10Loop(prog, ind, x, f, flops, rows)
		var ctl *adapt.Controller
		if self {
			ctl = adapt.NewController()
			loop.SelfSched(ctl)
		}
		for e := 0; e < execs; e++ {
			loop.Execute()
		}
		lf := f.Local()
		b := make([]uint64, len(lf))
		for i, v := range lf {
			b[i] = math.Float64bits(v)
		}
		bits[p.Rank()] = b
		motion[p.Rank()] = loop.DataMotion()
		if ctl != nil && p.Rank() == 0 {
			steals = len(ctl.Steals())
		}
	})
	return bits, motion, rep.MaxClock(), steals
}

func compareTrial(t *testing.T, label string, nprocs int, sBits, aBits [][]uint64, sMotion, aMotion []comm.Stats) {
	t.Helper()
	for r := 0; r < nprocs; r++ {
		if len(sBits[r]) != len(aBits[r]) {
			t.Fatalf("%s rank %d: result lengths differ", label, r)
		}
		for i := range sBits[r] {
			if sBits[r][i] != aBits[r][i] {
				t.Fatalf("%s rank %d elem %d: self-sched %016x != static %016x",
					label, r, i, aBits[r][i], sBits[r][i])
			}
		}
		if sMotion[r].MsgsSent != aMotion[r].MsgsSent || sMotion[r].BytesSent != aMotion[r].BytesSent ||
			sMotion[r].MsgsRecv != aMotion[r].MsgsRecv || sMotion[r].BytesRecv != aMotion[r].BytesRecv {
			t.Errorf("%s rank %d: data-motion phase differs: self-sched %+v static %+v",
				label, r, aMotion[r], sMotion[r])
		}
	}
}

// TestSelfSchedPropertyBitIdentical is the adaptivity analogue of the
// fortd -O bit-identity property test: 200+ randomized trials of sum loops,
// in pair and row form, across {1,2,3,4} procs, asserting the self-scheduling
// executor produces identical Float64bits on every REAL array and an
// identical message/byte count in the executor's data-motion phase.
func TestSelfSchedPropertyBitIdentical(t *testing.T) {
	trials := 0
	totalSteals, rowSteals := 0, 0
	for seed := int64(0); seed < 26; seed++ {
		for _, nprocs := range []int{1, 2, 3, 4} {
			rng := rand.New(rand.NewSource(1000 + seed))
			n := 40 + rng.Intn(120)
			w := 1 + rng.Intn(3)
			execs := 1 + rng.Intn(3)
			gptr, gvals := skewedCSR(n, 8+rng.Intn(8), rng.Intn(3), seed)
			x0 := make([]float64, n*w)
			for i := range x0 {
				x0[i] = rng.NormFloat64()
			}
			sBits, sMotion, _, _ := sumTrial(nprocs, n, w, execs, 50, gptr, gvals, x0, false, false)
			aBits, aMotion, _, st := sumTrial(nprocs, n, w, execs, 50, gptr, gvals, x0, false, true)
			compareTrial(t, "sum", nprocs, sBits, aBits, sMotion, aMotion)
			trials++
			totalSteals += st

			// The row form, stolen chunks included, against the static pair
			// form over the list without its self pairs.
			rptr, rvals := dropSelf(gptr, gvals)
			sBits, sMotion, _, _ = sumTrial(nprocs, n, w, execs, 50, rptr, rvals, x0, false, false)
			aBits, aMotion, _, st = sumTrial(nprocs, n, w, execs, 50, rptr, rvals, x0, true, true)
			compareTrial(t, "sum-rows", nprocs, sBits, aBits, sMotion, aMotion)
			trials++
			rowSteals += st
		}
	}
	if trials < 200 {
		t.Fatalf("only %d trials, want >= 200", trials)
	}
	if totalSteals == 0 || rowSteals == 0 {
		t.Fatal("no trial ever stole a chunk; the property test is vacuous")
	}
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
	_, _, staticClk, _ := sumTrial(4, n, 1, 4, 200, gptr, gvals, x0, false, false)
	_, _, adaptClk, steals := sumTrial(4, n, 1, 4, 200, gptr, gvals, x0, false, true)
	if steals == 0 {
		t.Fatal("skewed layout produced no steals")
	}
	if adaptClk >= staticClk {
		t.Errorf("self-scheduling makespan %.6f >= static %.6f", adaptClk, staticClk)
	}
}

// TestAdaptSteadyStateAllocs pins the PR 3/PR 5 discipline on every spelling
// of the executor skeleton: once warm, an Execute — self-scheduled (chunking,
// planning AllReduce, steal traffic, replay), blocking, split-phase, both
// together, or a fused two-loop run — allocates nothing on any rank; in
// particular nothing proportional to the gather/contribution buffers, which
// persist on the loop.
func TestAdaptSteadyStateAllocs(t *testing.T) {
	const n = 192
	gptr, gvals := skewedCSR(n, 16, 1, 11)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i) * 0.5
	}
	// The pair form keeps the list as drawn, self pairs included (the aliased
	// arm of applyOwned, alias chunks under self-scheduling); only the row
	// form, which rejects them, runs the list without.
	rptr, rvals := dropSelf(gptr, gvals)
	if len(rvals) == len(gvals) {
		t.Fatal("list has no self pair; the pair-form cases do not cover the aliased arm")
	}
	type mode struct {
		name                   string
		nprocs                 int
		self, over, fuse, rows bool
	}
	var modes []mode
	for _, tc := range []mode{
		{name: "selfsched", nprocs: 4, self: true},
		{name: "blocking", nprocs: 2},
		{name: "overlap", nprocs: 2, over: true},
		{name: "overlap+selfsched", nprocs: 2, self: true, over: true},
		{name: "fused", nprocs: 2, fuse: true},
	} {
		// The row form's one-entry rows (delta slots, stolen pairs) index
		// through an array that lives on the loop, not one made per call.
		modes = append(modes, tc)
		tc.name, tc.rows = tc.name+"/rows", true
		modes = append(modes, tc)
	}
	for _, tc := range modes {
		got := make([]float64, tc.nprocs)
		plan := 0
		comm.Run(tc.nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(n)
			x := dec.AlignReal(1)
			f := dec.AlignReal(1)
			x.SetByGlobal(func(g int32, c []float64) { c[0] = x0[g] })
			ind := dec.AlignIndCSR()
			cptr, cvals := gptr, gvals
			if tc.rows {
				cptr, cvals = rptr, rvals
			}
			ptr, vals := localizeCSR(p, n, cptr, cvals)
			ind.SetCSR(ptr, vals)
			ctl := adapt.NewController()
			loop := newFigure10Loop(prog, ind, x, f, 50, tc.rows)
			if tc.self {
				loop.SelfSched(ctl)
			}
			loop.Overlap(tc.over)
			body := func() { loop.Execute() }
			if tc.fuse {
				second := newFigure10Loop(prog, ind, x, dec.AlignReal(1), 50, tc.rows)
				gr := prog.NewSharedSched(dec)
				loop.Share(gr)
				second.Share(gr)
				run := []*SumLoop{loop, second}
				body = func() { ExecuteFusedSum(run) }
			}
			for i := 0; i < 5; i++ {
				body()
			}
			got[p.Rank()] = testing.AllocsPerRun(20, body)
			if p.Rank() == 0 {
				plan = len(ctl.Steals())
			}
		})
		if tc.self && tc.nprocs == 4 && plan == 0 {
			t.Fatalf("%s: steady state has no steals; the alloc test does not cover the steal path", tc.name)
		}
		for r, a := range got {
			if a != 0 {
				t.Errorf("%s: rank %d: %v allocs/op in Execute steady state, want 0", tc.name, r, a)
			}
		}
	}
}
