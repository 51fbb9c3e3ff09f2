package loopir

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// overlapTransport selects the wire the parity trials run over. The fault
// plan's decisions are pure functions of per-link sequence numbers, so it
// doubles as a message-sequence-identity check: if overlap reordered or
// renumbered a single frame, the fault trace — and with it the virtual
// clocks — would diverge from blocking.
type overlapTransport int

const (
	overMem overlapTransport = iota
	overTCP
	overFault
	overDelay
)

func (k overlapTransport) run(t *testing.T, nprocs int, body func(p *comm.Proc)) *comm.Report {
	t.Helper()
	switch k {
	case overTCP:
		tr, err := comm.NewTCPMesh(nprocs)
		if err != nil {
			t.Fatalf("NewTCPMesh(%d): %v", nprocs, err)
		}
		return comm.RunTransport(nprocs, costmodel.IPSC860(), tr, body)
	case overFault:
		plan := &fault.Plan{Seed: 9, Link: fault.LinkFaults{
			DropProb: 0.03, RetryDelay: 2e-5,
			DupProb: 0.03, ReorderProb: 0.05,
			DelayProb: 0.1, MaxDelay: 1e-5,
		}}
		ft := fault.Wrap(comm.NewMemTransport(nprocs), nprocs, plan)
		return comm.RunTransport(nprocs, costmodel.IPSC860(), ft, body)
	case overDelay:
		tr := comm.NewDelayTransport(comm.NewMemTransport(nprocs), time.Millisecond)
		return comm.RunTransport(nprocs, costmodel.IPSC860(), tr, body)
	default:
		return comm.Run(nprocs, costmodel.IPSC860(), body)
	}
}

// trialOut is everything a parity trial observes on one rank: the result
// array's bits, the executor's data-motion stats, and the run-wide clocks
// and statistics.
type trialOut struct {
	bits   [][]uint64
	motion []comm.Stats
	rep    *comm.Report
}

// sumOverlapTrial runs the Figure 10 sum loop, compiled from its pair body
// or (rows) its row body, optionally self-scheduled, in blocking or
// split-phase overlap mode.
func sumOverlapTrial(t *testing.T, kind overlapTransport, nprocs, n, w, execs int, gptr, gvals []int32, x0 []float64, rows, self, overlap bool) trialOut {
	out := trialOut{bits: make([][]uint64, nprocs), motion: make([]comm.Stats, nprocs)}
	out.rep = kind.run(t, nprocs, func(p *comm.Proc) {
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
		loop := newFigure10Loop(prog, ind, x, f, 40, rows)
		if self {
			loop.SelfSched(adapt.NewController())
		}
		loop.Overlap(overlap)
		for e := 0; e < execs; e++ {
			loop.Execute()
		}
		lf := f.Local()
		b := make([]uint64, 0, len(lf)+len(x.Local()))
		for _, v := range lf {
			b = append(b, math.Float64bits(v))
		}
		for _, v := range x.Local() {
			b = append(b, math.Float64bits(v))
		}
		out.bits[p.Rank()] = b
		out.motion[p.Rank()] = loop.DataMotion()
	})
	return out
}

// pairOverlapTrial runs the Figure 2 bonded pair loop, optionally
// self-scheduled with a shipped parameter row, in blocking or overlap mode.
func pairOverlapTrial(t *testing.T, kind overlapTransport, nprocs, nData, nBonds, w, execs int, gia, gib []int32, x0, prm0 []float64, self, overlap bool) trialOut {
	out := trialOut{bits: make([][]uint64, nprocs), motion: make([]comm.Stats, nprocs)}
	out.rep = kind.run(t, nprocs, func(p *comm.Proc) {
		prog := NewProgram(p)
		data := prog.Decomposition(nData)
		bonds := prog.Decomposition(nBonds)
		x := data.AlignReal(w)
		f := data.AlignReal(w)
		x.SetByGlobal(func(g int32, c []float64) {
			for cc := range c {
				c[cc] = x0[int(g)*w+cc]
			}
		})
		prm := bonds.AlignReal(1)
		prm.SetByGlobal(func(g int32, c []float64) { c[0] = prm0[g] })
		ia := bonds.AlignIndFlat(1)
		ib := bonds.AlignIndFlat(1)
		lo, hi := partition.BlockRange(p.Rank(), nBonds, p.Size())
		ia.SetFlat(append([]int32(nil), gia[lo:hi]...))
		ib.SetFlat(append([]int32(nil), gib[lo:hi]...))
		body := func(k int, xi, xj, fi, fj []float64) {
			pairParamKernel(prm.Local()[k:k+1], xi, xj, fi, fj)
		}
		loop := prog.NewPairLoop(ia, ib, x, f, 9, body)
		if self {
			ctl := adapt.NewController()
			ctl.MinChunkUnits = 8
			loop.SelfSched(ctl, prm, pairParamKernel)
		}
		loop.Overlap(overlap)
		for e := 0; e < execs; e++ {
			loop.Execute()
		}
		lf := f.Local()
		b := make([]uint64, 0, len(lf))
		for _, v := range lf {
			b = append(b, math.Float64bits(v))
		}
		out.bits[p.Rank()] = b
		out.motion[p.Rank()] = loop.DataMotion()
	})
	return out
}

// compareOverlapTrial asserts two runs of the same program that may differ
// only in when real work happens — a blocking run (want) and its overlap run,
// a pair-constructed loop (want) and its row-constructed twin — are
// observationally identical: every REAL array bit-identical, the executor
// data-motion message/byte counts identical, and every rank's virtual clock
// and full statistics bit-identical.
func compareOverlapTrial(t *testing.T, label string, nprocs int, want, got trialOut) {
	t.Helper()
	for r := 0; r < nprocs; r++ {
		if len(want.bits[r]) != len(got.bits[r]) {
			t.Fatalf("%s rank %d: result lengths differ", label, r)
		}
		for i := range want.bits[r] {
			if want.bits[r][i] != got.bits[r][i] {
				t.Fatalf("%s rank %d elem %d: got %016x, want %016x",
					label, r, i, got.bits[r][i], want.bits[r][i])
			}
		}
		wm, gm := want.motion[r], got.motion[r]
		if wm.MsgsSent != gm.MsgsSent || wm.BytesSent != gm.BytesSent ||
			wm.MsgsRecv != gm.MsgsRecv || wm.BytesRecv != gm.BytesRecv {
			t.Errorf("%s rank %d: data motion %+v, want %+v", label, r, gm, wm)
		}
		if math.Float64bits(want.rep.Clocks[r]) != math.Float64bits(got.rep.Clocks[r]) {
			t.Errorf("%s rank %d: clock %v, want %v", label, r, got.rep.Clocks[r], want.rep.Clocks[r])
		}
		if want.rep.Stats[r] != got.rep.Stats[r] {
			t.Errorf("%s rank %d: stats %+v, want %+v", label, r, got.rep.Stats[r], want.rep.Stats[r])
		}
	}
}

// TestOverlapPropertyBitIdentical is the tentpole property test: 200+
// randomized trials asserting the split-phase overlap executor is
// observationally identical to the blocking executor — bit-identical REAL
// arrays, identical message and byte counts, bit-identical virtual clocks —
// across {1,2,3} ranks, sum / pair / self-scheduled loops, and memory and
// fault-injected transports. Overlap changes when real work happens, never
// what the modeled machine observes.
func TestOverlapPropertyBitIdentical(t *testing.T) {
	trials := 0
	for seed := int64(0); seed < 17; seed++ {
		kind := overMem
		if seed%4 == 1 {
			kind = overFault
		}
		for _, nprocs := range []int{1, 2, 3} {
			rng := rand.New(rand.NewSource(4000 + seed))
			n := 40 + rng.Intn(120)
			w := 1 + rng.Intn(3)
			execs := 1 + rng.Intn(3)
			self := seed%3 == 2
			gptr, gvals := skewedCSR(n, 6+rng.Intn(8), rng.Intn(3), seed)
			x0 := make([]float64, n*w)
			for i := range x0 {
				x0[i] = rng.NormFloat64()
			}
			block := sumOverlapTrial(t, kind, nprocs, n, w, execs, gptr, gvals, x0, false, self, false)
			over := sumOverlapTrial(t, kind, nprocs, n, w, execs, gptr, gvals, x0, false, self, true)
			compareOverlapTrial(t, "sum", nprocs, block, over)
			trials++

			nBonds := 60 + rng.Intn(160)
			gia := make([]int32, nBonds)
			gib := make([]int32, nBonds)
			for k := range gia {
				gia[k] = int32(rng.Intn(n))
				gib[k] = int32(rng.Intn(n))
			}
			prm0 := make([]float64, nBonds)
			for i := range prm0 {
				prm0[i] = 0.5 + rng.Float64()
			}
			block = pairOverlapTrial(t, kind, nprocs, n, nBonds, w, execs, gia, gib, x0, prm0, self, false)
			over = pairOverlapTrial(t, kind, nprocs, n, nBonds, w, execs, gia, gib, x0, prm0, self, true)
			compareOverlapTrial(t, "pair", nprocs, block, over)
			trials++

			// Self-sched trials above only toggle with the seed; always run
			// one explicit self-scheduled sum trial so every (transport,
			// nprocs) cell covers the composed gather-side overlap.
			block = sumOverlapTrial(t, kind, nprocs, n, w, 2, gptr, gvals, x0, false, true, false)
			over = sumOverlapTrial(t, kind, nprocs, n, w, 2, gptr, gvals, x0, false, true, true)
			compareOverlapTrial(t, "sum-selfsched", nprocs, block, over)
			trials++

			block = pairOverlapTrial(t, kind, nprocs, n, nBonds, w, 2, gia, gib, x0, prm0, true, false)
			over = pairOverlapTrial(t, kind, nprocs, n, nBonds, w, 2, gia, gib, x0, prm0, true, true)
			compareOverlapTrial(t, "pair-selfsched", nprocs, block, over)
			trials++

			rowFormTrials(t, kind, nprocs, n, w, execs, gptr, gvals, x0)
			trials++
		}
	}
	if trials < 200 {
		t.Fatalf("only %d trials, want >= 200", trials)
	}
}

// TestOverlapParityTCP runs a slice of the parity property over real
// loopback sockets, where completion timing is genuinely asynchronous.
func TestOverlapParityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	overlapParitySlice(t, overTCP)
}

// TestOverlapParityDelay runs the same slice over a wire with real latency
// (a millisecond per frame on the in-memory mesh): the split-phase executor
// really does compute while frames are in flight, and blocking and overlap
// must still agree on every bit, count and virtual clock.
func TestOverlapParityDelay(t *testing.T) {
	overlapParitySlice(t, overDelay)
}

// rowFormTrials holds the row form to the pair form: over the list without
// its self pairs, the row-constructed loop in every mode of a loop run on
// its own (blocking, split-phase, self-scheduled, both) must match the
// pair-constructed loop in the same mode bit for bit — REAL arrays, virtual
// clocks, message and byte counts.
func rowFormTrials(t *testing.T, kind overlapTransport, nprocs, n, w, execs int, gptr, gvals []int32, x0 []float64) {
	t.Helper()
	gptr, gvals = dropSelf(gptr, gvals)
	for _, mode := range []struct {
		label         string
		self, overlap bool
	}{
		{"rows", false, false},
		{"rows-overlap", false, true},
		{"rows-selfsched", true, false},
		{"rows-overlap-selfsched", true, true},
	} {
		pairs := sumOverlapTrial(t, kind, nprocs, n, w, execs, gptr, gvals, x0, false, mode.self, mode.overlap)
		rows := sumOverlapTrial(t, kind, nprocs, n, w, execs, gptr, gvals, x0, true, mode.self, mode.overlap)
		compareOverlapTrial(t, mode.label, nprocs, pairs, rows)
	}
}

func overlapParitySlice(t *testing.T, kind overlapTransport) {
	rng := rand.New(rand.NewSource(77))
	const n = 90
	gptr, gvals := skewedCSR(n, 7, 2, 21)
	x0 := make([]float64, n*2)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	nBonds := 120
	gia := make([]int32, nBonds)
	gib := make([]int32, nBonds)
	for k := range gia {
		gia[k] = int32(rng.Intn(n))
		gib[k] = int32(rng.Intn(n))
	}
	prm0 := make([]float64, nBonds)
	for i := range prm0 {
		prm0[i] = 0.5 + rng.Float64()
	}
	for _, nprocs := range []int{2, 3} {
		for _, self := range []bool{false, true} {
			block := sumOverlapTrial(t, kind, nprocs, n, 2, 2, gptr, gvals, x0, false, self, false)
			over := sumOverlapTrial(t, kind, nprocs, n, 2, 2, gptr, gvals, x0, false, self, true)
			compareOverlapTrial(t, "sum", nprocs, block, over)
			block = pairOverlapTrial(t, kind, nprocs, n, nBonds, 2, 2, gia, gib, x0, prm0, self, false)
			over = pairOverlapTrial(t, kind, nprocs, n, nBonds, 2, 2, gia, gib, x0, prm0, self, true)
			compareOverlapTrial(t, "pair", nprocs, block, over)
		}
		rowFormTrials(t, kind, nprocs, n, 2, 2, gptr, gvals, x0)
	}
}
