package loopir

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
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
// across {1,2,3} ranks, blocking / self-scheduled sum loops in pair and row
// form, and memory and fault-injected transports. Overlap changes when real work happens, never
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

			// Self-sched trials above only toggle with the seed; always run
			// one explicit self-scheduled sum trial so every (transport,
			// nprocs) cell covers the composed gather-side overlap.
			block = sumOverlapTrial(t, kind, nprocs, n, w, 2, gptr, gvals, x0, false, true, false)
			over = sumOverlapTrial(t, kind, nprocs, n, w, 2, gptr, gvals, x0, false, true, true)
			compareOverlapTrial(t, "sum-selfsched", nprocs, block, over)
			trials++

			rowFormTrials(t, kind, nprocs, n, w, execs, gptr, gvals, x0)
			trials += 4 // one comparison per mode
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
	for _, nprocs := range []int{2, 3} {
		for _, self := range []bool{false, true} {
			block := sumOverlapTrial(t, kind, nprocs, n, 2, 2, gptr, gvals, x0, false, self, false)
			over := sumOverlapTrial(t, kind, nprocs, n, 2, 2, gptr, gvals, x0, false, self, true)
			compareOverlapTrial(t, "sum", nprocs, block, over)
		}
		rowFormTrials(t, kind, nprocs, n, 2, 2, gptr, gvals, x0)
	}
}

// TestBoundaryList unit-tests the split-phase interior/boundary
// classification.
func TestBoundaryList(t *testing.T) {
	// 3 rows; nLocal=4 so slots 4,5 are ghosts.
	ptr := []int32{0, 2, 2, 5}
	loc := []int32{0, 4, 1, 5, 3}
	bp, bi := boundaryList(nil, nil, ptr, loc, 4)
	if !slices.Equal(bp, []int32{0, 1, 1, 2}) || !slices.Equal(bi, []int32{1, 3}) {
		t.Fatalf("boundary list bp=%v bi=%v, want [0 1 1 2] [1 3]", bp, bi)
	}

	// Rebuild into the same storage with different data.
	bp2, bi2 := boundaryList(bp, bi, []int32{0, 1}, []int32{2}, 4)
	if &bp2[0] != &bp[0] || !slices.Equal(bp2, []int32{0, 0}) || len(bi2) != 0 {
		t.Fatalf("boundary list reuse: bp=%v bi=%v", bp2, bi2)
	}
}
