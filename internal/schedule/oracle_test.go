package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/ttable"
)

// The motion oracle: every spelling of data transportation through a
// schedule moves what a sequential gather or scatter moves. A row is a
// spelling and, for a scatter, a combine op; a cell crosses the rows with a
// translation-table kind, a transport and a rank count (commtest). Each cell
// runs every row twice, once through the blocking spelling and once through
// its split-phase twin (*Start, real uncharged work, Wait), over one random
// owner map and random per-rank references.

// motionWidth is the width of the wide array; the narrow one has width 1.
const motionWidth = 3

// motionRow is one spelling: which of the two arrays it moves (a multi-array
// spelling moves both in one message per peer).
type motionRow struct {
	name    string
	scatter bool
	op      CombineOp
	arrays  []int // 0: the narrow array, 1: the wide one
}

func motionRows() []motionRow {
	rows := []motionRow{
		{name: "Gather", arrays: []int{0}},
		{name: "GatherW", arrays: []int{1}},
		{name: "GatherWMulti", arrays: []int{0, 1}},
	}
	for _, op := range []CombineOp{OpAdd, OpReplace, opMax, opMin} {
		name := [...]string{"replace", "add", "max", "min"}[op]
		rows = append(rows,
			motionRow{name: "Scatter/" + name, scatter: true, op: op, arrays: []int{0}},
			motionRow{name: "ScatterW/" + name, scatter: true, op: op, arrays: []int{1}},
			motionRow{name: "ScatterWMulti/" + name, scatter: true, op: op, arrays: []int{0, 1}},
		)
	}
	return rows
}

// move runs the row through its blocking spelling, or its split-phase twin
// with window as the work between Start and Wait.
func (row motionRow) move(p *comm.Proc, s *Schedule, data [2][]float64, split bool, window func()) {
	var datas [][]float64
	var ws []int
	for _, b := range row.arrays {
		datas, ws = append(datas, data[b]), append(ws, []int{1, motionWidth}[b])
	}
	multi := len(datas) == 2
	var mo *Motion // nil (Wait is a no-op) for the blocking spellings
	switch {
	case split && row.scatter && multi:
		mo = ScatterWMultiStart(p, s, datas, ws, row.op)
	case split && row.scatter:
		mo = ScatterWStart(p, s, datas[0], ws[0], row.op)
	case split && multi:
		mo = GatherWMultiStart(p, s, datas, ws)
	case split:
		mo = GatherWStart(p, s, datas[0], ws[0])
	case row.scatter && multi:
		ScatterWMulti(p, s, datas, ws, row.op)
	case row.scatter && ws[0] == 1:
		Scatter(p, s, datas[0], row.op)
	case row.scatter:
		ScatterW(p, s, datas[0], ws[0], row.op)
	case multi:
		GatherWMulti(p, s, datas, ws)
	case ws[0] == 1:
		Gather(p, s, datas[0])
	default:
		GatherW(p, s, datas[0], ws[0])
	}
	window()
	mo.Wait()
	mo.Wait() // idempotent
}

// motionCase is the global data of one cell: who owns each element and
// which elements each rank references.
type motionCase struct {
	owners []int32
	refs   [][]int32
}

func newMotionCase(nprocs int) *motionCase {
	rng := rand.New(rand.NewSource(int64(31 * nprocs)))
	mc := &motionCase{owners: make([]int32, 90), refs: make([][]int32, nprocs)}
	for g := range mc.owners {
		mc.owners[g] = int32(rng.Intn(nprocs))
	}
	for r := range mc.refs {
		for range 60 {
			mc.refs[r] = append(mc.refs[r], int32(rng.Intn(len(mc.owners))))
		}
	}
	return mc
}

// value is component c of element g of array b on its owner; contrib is
// rank r's ghost contribution to it. Both are dyadic, so every combine is
// exact in any order.
func value(g int32, b, c int) float64 { return float64((int(g)*7+b*3+c)%61-30) / 4 }

func contrib(r int, g int32, b, c int) float64 {
	return float64((r*13+int(g)*5+b+c*11)%53-26) / 4
}

// scattered is the sequential scatter: owner's element g of array b,
// component c, after every other rank that references g combined its
// contribution with op, in the order Wait receives them (ring order:
// rank-1, rank-2, ...), then — for OpAdd, whose window writes the owned
// section — plus the window's 0.25.
func (mc *motionCase) scattered(op CombineOp, g int32, b, c int) float64 {
	owner, nprocs := int(mc.owners[g]), len(mc.refs)
	v := value(g, b, c)
	for k := 1; k < nprocs; k++ {
		src := (owner - k + nprocs) % nprocs
		if !slices.Contains(mc.refs[src], g) {
			continue
		}
		x := contrib(src, g, b, c)
		switch op {
		case OpAdd:
			v += x
		case OpReplace:
			v = x
		case opMax:
			v = math.Max(v, x)
		case opMin:
			v = math.Min(v, x)
		}
	}
	if op == OpAdd {
		v += 0.25
	}
	return v
}

// observed is what a rank sees of one row: both arrays, its virtual clock
// and statistics after the row, and the statistics of the row alone.
type observed struct {
	data         []float64
	clock        float64
	stats, moved comm.Stats
}

// motionKey names one run of every row: a cell, blocking or split-phase.
type motionKey struct {
	kind   ttable.Kind
	col    commtest.Transport
	nprocs int
	split  bool
}

func (k motionKey) String() string {
	return fmt.Sprintf("%s/%v/p%d split-phase %v", [...]string{"replicated", "distributed"}[k.kind], k.col, k.nprocs, k.split)
}

// motionRun is what one run saw of each row, and what it saw go wrong.
type motionRun struct {
	obs  [][]observed // [row][rank]
	mu   sync.Mutex
	errs [][]string // [row]
}

func (mr *motionRun) errorf(ri int, format string, args ...any) {
	mr.mu.Lock()
	mr.errs[ri] = append(mr.errs[ri], fmt.Sprintf(format, args...))
	mr.mu.Unlock()
}

// motionRuns shares each run between the matrix and its slices.
var motionRuns commtest.Memo[motionKey, *motionRun]

// motions returns run k's observations of the rows keep selects (indices
// into motionRows), failing t with what went wrong in them.
func motions(t *testing.T, k motionKey, keep []int) [][]observed {
	t.Helper()
	commtest.Skip(t, k.col)
	mr, err := motionRuns.Get(k, func() (*motionRun, error) { return runMotions(k) })
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	var obs [][]observed
	for _, ri := range keep {
		for _, err := range mr.errs[ri] {
			t.Errorf("%v: %s", k, err)
		}
		obs = append(obs, mr.obs[ri])
	}
	return obs
}

// runMotions runs every row on one cell, blocking or split-phase, checking
// each against the sequential gather or scatter.
func runMotions(k motionKey) (*motionRun, error) {
	rows, mc, nprocs := motionRows(), newMotionCase(k.nprocs), k.nprocs
	mr := &motionRun{obs: make([][]observed, len(rows)), errs: make([][]string, len(rows))}
	for ri := range mr.obs {
		mr.obs[ri] = make([]observed, nprocs)
	}
	_, err := commtest.Try(k.col, nprocs, costmodel.Uniform(2e-8), func(p *comm.Proc) {
		me := p.Rank()
		lo, hi := me*len(mc.owners)/nprocs, (me+1)*len(mc.owners)/nprocs
		tt := ttable.Build(p, k.kind, mc.owners[lo:hi])
		ht := hashtab.New(p, tt)
		st := ht.NewStamp()
		loc := ht.Hash(mc.refs[me], st)
		s := Build(p, ht, st, 0)
		// The owned elements in local order (increasing global index) and
		// the ghosts in slot order.
		var elems []int32
		for g, o := range mc.owners {
			if int(o) == me {
				elems = append(elems, int32(g))
			}
		}
		elems = append(elems, ht.GhostGlobals()...)
		nLocal := ht.NLocal()
		for ri, row := range rows {
			var data [2][]float64
			for b, w := range []int{1, motionWidth} {
				data[b] = make([]float64, s.MinLen()*w)
				for i, g := range elems {
					for c := range w {
						switch {
						case i < nLocal:
							data[b][i*w+c] = value(g, b, c)
						case row.scatter:
							data[b][i*w+c] = contrib(me, g, b, c)
						default:
							data[b][i*w+c] = math.NaN()
						}
					}
				}
			}
			window := func() {
				// Uncharged work on the owned section: read it for a gather;
				// write it for an add, whose remote combines land after
				// every local write in both spellings.
				for _, b := range row.arrays {
					for i := range nLocal * []int{1, motionWidth}[b] {
						if row.scatter && row.op == OpAdd {
							data[b][i] += 0.25
						} else if math.IsNaN(data[b][i]) {
							mr.errorf(ri, "%s: owned slot %d reads NaN", row.name, i)
						}
					}
				}
			}
			before := p.Stats()
			row.move(p, s, data, k.split, window)
			mr.obs[ri][me] = observed{slices.Concat(data[0], data[1]), p.Clock(), p.Stats(), p.Stats().Sub(before)}
			for _, b := range row.arrays {
				w := []int{1, motionWidth}[b]
				for i, g := range elems {
					for c := range w {
						var want float64
						switch {
						case i >= nLocal && row.scatter:
							want = contrib(me, g, b, c)
						case row.scatter:
							want = mc.scattered(row.op, g, b, c)
						default:
							want = value(g, b, c)
						}
						if got := data[b][i*w+c]; math.Float64bits(got) != math.Float64bits(want) {
							mr.errorf(ri, "%s: rank %d, array %d, element %d component %d is %v, sequential %v", row.name, me, b, g, c, got, want)
						}
					}
				}
			}
			// A gather also delivers through the localized references.
			for k, g := range mc.refs[me] {
				if b := row.arrays[0]; !row.scatter && data[b][int(loc[k])*[]int{1, motionWidth}[b]] != value(g, b, 0) {
					mr.errorf(ri, "%s: rank %d, reference %d (global %d) reads the wrong value", row.name, me, k, g)
				}
			}
		}
	})
	return mr, err
}

// TestMotionOracle holds every spelling to the sequential gather or
// scatter, bit for bit; each split-phase twin to its blocking spelling —
// data bits, every rank's virtual clock and statistics after every row; and
// each multi-array spelling to its two single-array ones: half the messages,
// the same bytes.
func TestMotionOracle(t *testing.T) {
	var moved atomic.Int64
	t.Run("matrix", func(t *testing.T) {
		for _, col := range commtest.Transports {
			motionView(t, nil, ttable.Distributed, col, func(t *testing.T, rows []motionRow, block, split [][]observed) {
				splitParity(t, rows, block, split)
				moved.Add(multiVsSingles(t, rows, block))
			})
		}
	})
	if moved.Load() == 0 {
		t.Error("no spelling moved a message; the oracle is vacuous")
	}
}

// The tests below are slices of the matrix, sharing its runs: the
// spellings keep selects on one column, each held to the sequential gather
// or scatter (runMotions) and to the contract its check names.

func TestGatherDeliversOwnersValues(t *testing.T) {
	motionView(t, named("Gather"), ttable.Replicated, commtest.Mem, nil)
}

func TestGatherWide(t *testing.T) {
	motionView(t, named("GatherW"), ttable.Replicated, commtest.Mem, nil)
}

func TestScatterAddMatchesSequential(t *testing.T) {
	motionView(t, named("Scatter/add", "ScatterW/add"), ttable.Replicated, commtest.Mem, nil)
}

func TestScatterReplaceAndMax(t *testing.T) {
	motionView(t, named("Scatter/replace", "Scatter/max", "ScatterW/replace", "ScatterW/max"), ttable.Replicated, commtest.Mem, nil)
}

func TestScatterMin(t *testing.T) {
	motionView(t, named("Scatter/min", "ScatterW/min"), ttable.Replicated, commtest.Mem, nil)
}

func TestSplitPhaseParity(t *testing.T) {
	single := func(row motionRow) bool { return len(row.arrays) == 1 }
	motionView(t, single, ttable.Replicated, commtest.Mem, splitParity)
}

func TestSplitPhaseMultiParity(t *testing.T) {
	multi := func(row motionRow) bool { return len(row.arrays) == 2 }
	motionView(t, multi, ttable.Replicated, commtest.Mem, splitParity)
}

func TestMultiGatherBitIdenticalToSingles(t *testing.T) {
	gather := func(row motionRow) bool { return !row.scatter }
	motionView(t, gather, ttable.Replicated, commtest.Mem, func(t *testing.T, rows []motionRow, block, _ [][]observed) {
		multiVsSingles(t, rows, block)
	})
}

func TestMultiScatterBitIdenticalToSingles(t *testing.T) {
	scatter := func(row motionRow) bool { return row.scatter }
	motionView(t, scatter, ttable.Replicated, commtest.Mem, func(t *testing.T, rows []motionRow, block, _ [][]observed) {
		multiVsSingles(t, rows, block)
	})
}

func TestGhostExchangeUnderFaults(t *testing.T) {
	for _, col := range []commtest.Transport{commtest.Fault, commtest.FaultTCP} {
		motionView(t, nil, ttable.Distributed, col, splitParity)
	}
}

// named keeps the rows with the given names.
func named(names ...string) func(motionRow) bool {
	return func(row motionRow) bool { return slices.Contains(names, row.name) }
}

// motionView runs, in parallel subtests, the rows keep selects (nil: every
// row) on col over {1,2,3} ranks, with a replicated translation table and,
// if kind is distributed, a distributed one too: each row through its
// blocking spelling and its split-phase twin, both checked against the
// sequential gather or scatter, then both handed to check (if not nil).
// Every test gets its runs from motionRuns.
func motionView(t *testing.T, keep func(motionRow) bool, kind ttable.Kind, col commtest.Transport,
	check func(t *testing.T, rows []motionRow, block, split [][]observed)) {
	var rows []motionRow
	var kept []int
	for ri, row := range motionRows() {
		if keep == nil || keep(row) {
			rows, kept = append(rows, row), append(kept, ri)
		}
	}
	for k := ttable.Replicated; k <= kind; k++ {
		for nprocs := 1; nprocs <= 3; nprocs++ {
			name := fmt.Sprintf("%s/%v/p%d", [...]string{"replicated", "distributed"}[k], col, nprocs)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				block := motions(t, motionKey{k, col, nprocs, false}, kept)
				split := motions(t, motionKey{k, col, nprocs, true}, kept)
				if check != nil {
					check(t, rows, block, split)
				}
			})
		}
	}
}

// splitParity holds each split-phase twin to its blocking spelling: data
// bits, and every rank's virtual clock and statistics after the row.
func splitParity(t *testing.T, rows []motionRow, block, split [][]observed) {
	t.Helper()
	for ri, row := range rows {
		for r := range block[ri] {
			b, sp := block[ri][r], split[ri][r]
			sameBits := slices.EqualFunc(sp.data, b.data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
			if !sameBits || sp.clock != b.clock || sp.stats != b.stats {
				t.Errorf("%s: rank %d: split-phase clock %v stats %+v, blocking %v %+v (or the data differ)",
					row.name, r, sp.clock, sp.stats, b.clock, b.stats)
			}
		}
	}
}

// multiVsSingles holds each multi-array spelling to the two single-array
// ones before it (rows come in triples: narrow, wide, both in one message):
// half the messages, the same bytes. It returns the multi spellings'
// messages.
func multiVsSingles(t *testing.T, rows []motionRow, block [][]observed) (moved int64) {
	t.Helper()
	for ri := 2; ri < len(rows); ri += 3 {
		for r := range block[ri] {
			multi, narrow, wide := block[ri][r].moved, block[ri-2][r].moved, block[ri-1][r].moved
			if 2*multi.MsgsSent != narrow.MsgsSent+wide.MsgsSent || multi.BytesSent != narrow.BytesSent+wide.BytesSent {
				t.Errorf("%s: rank %d sent %d messages of %d bytes, the single-array spellings %d + %d messages of %d + %d bytes",
					rows[ri].name, r, multi.MsgsSent, multi.BytesSent, narrow.MsgsSent, wide.MsgsSent, narrow.BytesSent, wide.BytesSent)
			}
			moved += multi.MsgsSent
		}
	}
	return moved
}
