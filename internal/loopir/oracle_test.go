package loopir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
)

// The executor oracle (DESIGN.md, "The executor oracle"): every way of
// running a compiled reduction loop computes what the sequential loop
// computes (paper §3.2.1, §5). A row is a loop form and, for a SumLoop run on
// its own, an executor mode; a column is a transport and a rank count. Every
// cell runs one program script — repeated executions, list edits, a Touch,
// redistributions of the data and the iteration decomposition, then a fresh
// program at the final layout — over a pinned instance and, on the mem and
// fault columns, random ones.

// shape is what a row's program is built from.
type shape struct {
	rows     bool // loop 1 is compiled from its row body
	selfFree bool // the list has no self pairs (a row body needs that)
	pair     bool // PairLoops over a bond list, not SumLoops over a CSR list
	two      bool // a second loop (halfBody) over the same list
	shared   bool // the loops share one SharedSched
	fused    bool // and run as one fused execution
}

// form is a row's loop form.
type form struct {
	name string
	shape
	trials int // random instances on the mem and fault columns
	// pinned is the blocking mem column's virtual clock after each of the
	// script's first six steps on the pinned instance ([ranks][rank][step]),
	// as measured with the guards each loop carried before schedule groups.
	pinned map[int][][]uint64
}

var forms = []form{
	{name: "sum-pair", trials: 9, pinned: sumLoopClocks},
	{name: "sum-rows", shape: shape{rows: true, selfFree: true}, trials: 9},
	{name: "pair", shape: shape{pair: true}, trials: 2, pinned: pairLoopClocks},
	{name: "shared", shape: shape{two: true, shared: true}, trials: 2},
	{name: "fused-sum", shape: shape{rows: true, selfFree: true, two: true, shared: true, fused: true}, trials: 2},
	{name: "fused-pair", shape: shape{pair: true, two: true, shared: true, fused: true}, trials: 2},
}

// ref is the shape whose blocking run a row must match bit for bit: the
// same loops over the same list, compiled from pair bodies, each on its own
// schedule group, executed one after the other.
func (f shape) ref() shape { return shape{selfFree: f.selfFree, pair: f.pair, two: f.two} }

// mode is an executor mode of a SumLoop run on its own.
type mode struct {
	name          string
	overlap, self bool
}

var (
	blocking  = mode{name: "blocking"}
	overlap   = mode{name: "overlap", overlap: true}
	selfsched = mode{name: "selfsched", self: true}
	both      = mode{name: "overlap+selfsched", overlap: true, self: true}
)

// timeline is the mode whose virtual timeline m must reproduce: split-phase
// execution charges exactly what the blocking collectives charge, while
// self-scheduling changes the timeline (that is its point).
func (m mode) timeline() mode {
	if m.self {
		return selfsched
	}
	return blocking
}

// modes returns the form's rows: every mode for a lone SumLoop, blocking for
// the rest (a PairLoop and any fused run always execute blocking).
func (f shape) modes() []mode {
	if f.pair || f.two {
		return []mode{blocking}
	}
	return []mode{blocking, overlap, selfsched, both}
}

// ranks returns the rank counts of the form's cells on col: 1 to 3, and 4
// for a lone SumLoop on the mem column.
func (f shape) ranks(col commtest.Transport) []int {
	if col == commtest.Mem && len(f.modes()) > 1 {
		return []int{1, 2, 3, 4}
	}
	return []int{1, 2, 3}
}

// script is the program every cell runs; list is the version of the global
// lists in force after the step, and every step ends in an execution with
// the reduced arrays zeroed. Each step re-inspects exactly once
// (wantInspections), except the unchanged ones.
var script = []struct {
	name string
	list int
	do   func(*trial)
}{
	{"first run", 0, nil},
	{"no change", 0, nil},
	{"edit", 1, func(tr *trial) { tr.set(1) }},
	{"touch", 1, func(tr *trial) { tr.inds[0].Touch() }},
	{"redistribute", 1, (*trial).redistribute},
	{"no change again", 1, nil},
	{"edit after redistribute", 2, func(tr *trial) { tr.set(2) }},
	{"iteration redistribute to the same owners", 2, func(tr *trial) { tr.iters.Redistribute(spread(tr.iters, 0, tr.p)) }},
	{"iteration redistribute", 2, func(tr *trial) { tr.iters.Redistribute(spread(tr.iters, 5, tr.p)) }},
}

var wantInspections = []int{1, 1, 2, 3, 4, 4, 5, 6, 7}

// spread is a deterministic owner map, a pure function of the global index
// (so a fresh program can reach the same layout in one move); mul 0 keeps
// every element where it is.
func spread(d *Decomposition, mul int32, p *comm.Proc) []int32 {
	owners := make([]int32, d.NLocal())
	for i, g := range d.Globals() {
		owners[i] = (g*mul + g/3) % int32(p.Size())
		if mul == 0 {
			owners[i] = int32(p.Rank())
		}
	}
	return owners
}

// instance is the global data of one trial. A sum form's list is CSR:
// ii[v][k] is pair k's row, jj[v][k] its partner; a pair form's is the bond
// arrays ia = ii[v], ib = jj[v]. v is the list version (script.list).
type instance struct {
	n, w, flops int
	nb          int     // pair forms: bonds
	ptr         []int32 // sum forms: the CSR row pointers (edits keep them)
	ii, jj      [3][]int32
	x0          []float64
	// exact marks components holding dyadic values, whose sums are exact in
	// any order: those are held to the sequential loop bit for bit. The
	// others hold normal deviates, whose sums depend on the order of the
	// adds: held bit for bit to blocking, and within 1e-9 to the sequential
	// loop.
	exact []bool
}

func newInstance(f shape, seed int64) *instance {
	in := &instance{w: 1, flops: 6}
	rng := rand.New(rand.NewSource(9))
	if seed >= 0 {
		rng = rand.New(rand.NewSource(4000 + seed))
		in.w, in.flops = 1+rng.Intn(3), 50
	}
	edit := func(list []int32, mul, add int32, self []int32) []int32 {
		out := make([]int32, len(list))
		for k, v := range list {
			out[k] = (v*mul + add) % int32(in.n)
			if self != nil && out[k] == self[k] {
				out[k] = (out[k] + 1) % int32(in.n)
			}
		}
		return out
	}
	if f.pair {
		in.n, in.nb, in.flops = 90, 160, 3
		if seed >= 0 {
			in.n, in.nb = 40+rng.Intn(80), 60+rng.Intn(140)
		}
		ia, ib := make([]int32, in.nb), make([]int32, in.nb)
		for k := range ia {
			ia[k], ib[k] = int32(rng.Intn(in.n)), int32(rng.Intn(in.n))
		}
		in.ii[0], in.jj[0] = ia, ib
		in.ii[1], in.jj[1] = ia, edit(ib, 5, 2, nil)
		in.ii[2], in.jj[2] = edit(ia, 3, 1, nil), in.jj[1]
	} else {
		var vals []int32
		if seed < 0 {
			in.n = 120
			in.ptr, vals = randCSR(in.n, 4, 21)
		} else {
			in.n = 40 + rng.Intn(120)
			in.ptr, vals = skewedCSR(in.n, 6+rng.Intn(10), rng.Intn(3), seed)
		}
		if f.selfFree {
			in.ptr, vals = dropSelf(in.ptr, vals)
		}
		rowOf := make([]int32, len(vals))
		for i := 0; i < in.n; i++ {
			for k := in.ptr[i]; k < in.ptr[i+1]; k++ {
				rowOf[k] = int32(i)
			}
		}
		self := []int32(nil)
		if f.selfFree {
			self = rowOf
		}
		in.ii = [3][]int32{rowOf, rowOf, rowOf}
		in.jj[0] = vals
		in.jj[1] = edit(vals, 7, 3, self)
		in.jj[2] = edit(in.jj[1], 5, 1, self)
	}
	in.exact = make([]bool, in.w)
	for c := range in.exact {
		in.exact[c] = seed < 0 || c > 0
	}
	in.x0 = make([]float64, in.n*in.w)
	for i := range in.x0 {
		switch {
		case seed < 0:
			in.x0[i] = float64(i%17) * 0.25
		case in.exact[i%in.w]:
			in.x0[i] = float64(rng.Intn(64)-32) / 4
		default:
			in.x0[i] = rng.NormFloat64()
		}
	}
	return in
}

// halfBody is the second loop of the two-loop forms (SumLoop form).
func halfBody(xi, xj, fi, fj []float64) {
	for c := range xi {
		fj[c] += xj[c] * 0.5
		fi[c] += xi[c] * 0.5
	}
}

func bondBody(_ int, xi, xj, fi, fj []float64) {
	for c := range xi {
		d := xi[c] - xj[c]
		fi[c] += d
		fj[c] -= d
	}
}

func bondHalf(_ int, xi, xj, fi, fj []float64) { halfBody(xi, xj, fi, fj) }

// dragBody is figure10Body with terms a self pair (i == j) does not cancel,
// so an aliased pair's adds, lost or reordered, show in the results. Lists
// with self pairs run it; self-free ones run figure10Body, the pair form of
// the row body figure10Rows.
func dragBody(xi, xj, fi, fj []float64) {
	for c := range xi {
		fj[c] += xj[c] - xi[c]*0.5
		fi[c] += xi[c] - xj[c]*0.75
	}
}

var pairBodies = [2]PairIterBody{bondBody, bondHalf}

// sumBody is the pair body of SumLoop a.
func (f shape) sumBody(a int) PairBody {
	switch {
	case a == 1:
		return halfBody
	case f.selfFree:
		return figure10Body
	}
	return dragBody
}

// sequential is the reference: loop a of form f over list version v on one
// processor, the pairs in order.
func (in *instance) sequential(f shape, a, v int) []float64 {
	body := f.sumBody(a)
	if f.pair {
		body = func(xi, xj, fi, fj []float64) { pairBodies[a](0, xi, xj, fi, fj) }
	}
	w, x := in.w, in.x0
	out := make([]float64, in.n*w)
	for k, i := range in.ii[v] {
		i, j := int(i)*w, int(in.jj[v][k])*w
		body(x[i:i+w], x[j:j+w], out[i:i+w], out[j:j+w])
	}
	return out
}

// oloop is what the oracle drives of a compiled loop.
type oloop interface {
	Execute()
	Inspections() int
	DataMotion() comm.Stats
	Share(*SharedSched)
	core() *loopCore
}

// trial is a row's program on one rank.
type trial struct {
	errorf      func(format string, args ...any)
	p           *comm.Proc
	in          *instance
	data, iters *Decomposition // the same for sum forms
	x           *RealArray
	outs        []*RealArray // one reduced array per loop
	inds        []*IndArray  // the CSR list, or ia and ib
	loops       []oloop
	exec        func()
	ctl         *adapt.Controller
	// handed are the arrays given to SetCSR/SetFlat, kept copies of them:
	// loopir may read them and must never write them.
	handed, kept [][]int32
}

// build compiles form f in mode m over list version v of in; errorf
// reports what the program does wrong.
func build(errorf func(string, ...any), p *comm.Proc, f shape, m mode, in *instance, v int) *trial {
	prog := NewProgram(p)
	tr := &trial{errorf: errorf, p: p, in: in, data: prog.Decomposition(in.n)}
	tr.iters = tr.data
	if f.pair {
		tr.iters = prog.Decomposition(in.nb)
	}
	tr.x = tr.data.AlignReal(in.w)
	tr.x.SetByGlobal(func(g int32, c []float64) { copy(c, in.x0[int(g)*in.w:]) })
	tr.outs = []*RealArray{tr.data.AlignReal(in.w)}
	if f.two {
		tr.outs = append(tr.outs, tr.data.AlignReal(in.w))
	}
	if f.pair {
		tr.inds = []*IndArray{tr.iters.AlignIndFlat(1), tr.iters.AlignIndFlat(1)}
	} else {
		tr.inds = []*IndArray{tr.data.AlignIndCSR()}
	}
	tr.set(v)
	var sums []*SumLoop
	var pairs []*PairLoop
	for a, out := range tr.outs {
		switch {
		case f.pair:
			pairs = append(pairs, prog.NewPairLoop(tr.inds[0], tr.inds[1], tr.x, out, in.flops, pairBodies[a]))
			tr.loops = append(tr.loops, pairs[a])
		case f.rows && a == 0:
			sums = append(sums, prog.NewSumLoopRows(tr.inds[0], tr.x, out, in.flops, figure10Rows))
			tr.loops = append(tr.loops, sums[a])
		default:
			sums = append(sums, prog.NewSumLoop(tr.inds[0], tr.x, out, in.flops, f.sumBody(a)))
			tr.loops = append(tr.loops, sums[a])
		}
	}
	if f.shared {
		g := prog.NewSharedSched(tr.data)
		for _, l := range tr.loops {
			l.Share(g)
		}
	}
	if m.self {
		tr.ctl = adapt.NewController()
		sums[0].SelfSched(tr.ctl)
	}
	if m.overlap {
		sums[0].Overlap(true)
	}
	switch {
	case f.fused && f.pair:
		tr.exec = func() { ExecuteFusedPair(pairs) }
	case f.fused:
		tr.exec = func() { ExecuteFusedSum(sums) }
	default:
		tr.exec = func() {
			for _, l := range tr.loops {
				l.Execute()
			}
		}
	}
	return tr
}

// set installs list version v in the current local order: every
// indirection array at build, after that those that differ from version
// v-1.
func (tr *trial) set(v int) {
	in := tr.in
	install := func(ia *IndArray, ptr, vals []int32) {
		if ptr != nil {
			ia.SetCSR(ptr, vals)
		} else {
			ia.SetFlat(vals)
		}
		tr.handed = append(tr.handed, ptr, vals)
		tr.kept = append(tr.kept, slices.Clone(ptr), slices.Clone(vals))
	}
	if in.ptr != nil {
		ptr := []int32{0}
		var vals []int32
		for _, g := range tr.data.Globals() {
			vals = append(vals, in.jj[v][in.ptr[g]:in.ptr[g+1]]...)
			ptr = append(ptr, int32(len(vals)))
		}
		install(tr.inds[0], ptr, vals)
		return
	}
	built := len(tr.handed) > 0
	for a, list := range [][3][]int32{in.ii, in.jj} {
		if built && &list[v][0] == &list[v-1][0] {
			continue
		}
		vals := make([]int32, tr.iters.NLocal())
		for i, g := range tr.iters.Globals() {
			vals[i] = list[v][g]
		}
		install(tr.inds[a], nil, vals)
	}
}

// redistribute moves the data decomposition. The array the move consumed
// is poisoned under go test: a Local() slice from before reads NaN.
func (tr *trial) redistribute() {
	mul := int32(3)
	if tr.data != tr.iters {
		mul = 7
	}
	stale := tr.x.Local()
	tr.data.Redistribute(spread(tr.data, mul, tr.p))
	for _, v := range stale {
		if !math.IsNaN(v) {
			tr.errorf("rank %d: a Local() slice from before Redistribute still reads %v", tr.p.Rank(), v)
			break
		}
	}
}

// run zeroes the reduced arrays and executes.
func (tr *trial) run() {
	for _, o := range tr.outs {
		o.Zero()
	}
	tr.exec()
}

// tableState is a rank's view of its schedule group's hash table.
type tableState struct {
	ht      *hashtab.Table
	summary string // its String: size, ghosts and translations so far
	len     int
}

// result is what one run of the script observes.
type result struct {
	in     *instance
	vals   [][][]float64 // [step][loop] the reduced array, in global order
	fresh  [][]float64   // [loop] a fresh program's first run at the final layout and lists
	clocks [][]uint64    // [rank][step] virtual clock bits
	insp   [][]int       // [step][rank] inspector runs
	tables [][]tableState
	motion []comm.Stats // [rank] the loops' DataMotion, summed
	steals int          // each step's steal plan size (its ranks' Work), summed
	rep    commtest.Outcome
	mu     sync.Mutex
	errs   []string // what the ranks saw the program do wrong
}

func (r *result) errorf(format string, args ...any) {
	r.mu.Lock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *result) record(s int, tr *trial) {
	rank := tr.p.Rank()
	r.clocks[rank][s] = math.Float64bits(tr.p.Clock())
	r.insp[s][rank] = tr.loops[0].Inspections()
	ht := tr.loops[0].core().shared.ht
	r.tables[s][rank] = tableState{ht, ht.String(), ht.Len()}
	for a, out := range tr.outs {
		scatterByGlobal(r.vals[s][a], out)
	}
	if tr.ctl != nil {
		r.mu.Lock()
		r.steals += len(tr.ctl.Work())
		r.mu.Unlock()
	}
}

// scatterByGlobal writes a rank's owned section of a into the global-order
// array (ranks own disjoint elements).
func scatterByGlobal(into []float64, a *RealArray) {
	w := a.width
	for i, g := range a.dec.Globals() {
		copy(into[int(g)*w:int(g+1)*w], a.Local()[i*w:])
	}
}

// runKey names one run of the script.
type runKey struct {
	f    shape
	m    mode
	col  commtest.Transport
	n    int
	seed int64
}

func (k runKey) String() string {
	return fmt.Sprintf("%+v %s over %v on %d ranks, seed %d", k.f, k.m.name, k.col, k.n, k.seed)
}

// runs shares each run of the script between the matrix and its slices.
var runs commtest.Memo[runKey, *result]

// memoRun returns run k, failing t with what the run saw go wrong.
func memoRun(t *testing.T, k runKey) *result {
	t.Helper()
	commtest.Skip(t, k.col)
	r, err := runs.Get(k, func() (*result, error) { return runScript(k) })
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	for _, err := range r.errs {
		t.Errorf("%v: %s", k, err)
	}
	return r
}

// steps is how much of the script run k takes: all of it on the pinned
// instance, the first executions and list edit on a random one (what the
// property tests the oracle replaced ran on theirs).
func (k runKey) steps() int {
	if k.seed < 0 {
		return len(script)
	}
	return 3
}

func runScript(k runKey) (*result, error) {
	in := newInstance(k.f, k.seed)
	steps := script[:k.steps()]
	nl := 1
	if k.f.two {
		nl = 2
	}
	r := &result{in: in, motion: make([]comm.Stats, k.n)}
	grid := func() [][]float64 {
		g := make([][]float64, nl)
		for a := range g {
			g[a] = make([]float64, in.n*in.w)
		}
		return g
	}
	for range steps {
		r.vals = append(r.vals, grid())
		r.insp = append(r.insp, make([]int, k.n))
		r.tables = append(r.tables, make([]tableState, k.n))
	}
	if len(steps) == len(script) {
		r.fresh = grid()
	}
	for range k.n {
		r.clocks = append(r.clocks, make([]uint64, len(steps)))
	}
	var err error
	r.rep, err = commtest.Try(k.col, k.n, costmodel.IPSC860(), func(p *comm.Proc) {
		tr := build(r.errorf, p, k.f, k.m, in, 0)
		for s, st := range steps {
			if st.do != nil {
				st.do(tr)
			}
			tr.run()
			r.record(s, tr)
		}
		for i := range tr.handed {
			if !slices.Equal(tr.handed[i], tr.kept[i]) {
				r.errorf("rank %d: loopir wrote an array it was handed through SetCSR/SetFlat", p.Rank())
			}
		}
		for _, l := range tr.loops {
			r.motion[p.Rank()].Add(l.DataMotion())
		}
		if r.fresh == nil {
			return
		}
		fresh := build(r.errorf, p, k.f, k.m, in, 2)
		if k.f.pair {
			fresh.data.Redistribute(spread(fresh.data, 7, p))
		}
		fresh.iters.Redistribute(spread(fresh.iters, 5, p))
		fresh.run()
		for a, out := range fresh.outs {
			scatterByGlobal(r.fresh[a], out)
		}
	})
	return r, err
}

// tally counts, across the concurrent cells, the randomized comparisons
// with blocking and what makes them non-vacuous.
type tally struct {
	mu sync.Mutex
	n  map[string]int
}

func (tl *tally) add(key string, n int) {
	tl.mu.Lock()
	tl.n[key] += n
	tl.mu.Unlock()
}

// TestExecutorOracle holds every row to the sequential loop and to its
// reference run on the same column (see shape.ref): REAL arrays bit for bit
// in every step and the executor's data-motion counts (half the messages
// for a fused run); for a mode or a row body, also every rank's virtual
// clock after every step and the run's statistics (mode.timeline).
// Inspections follow wantInspections, a fresh program equals the chained
// one, the pinned clocks hold, and on the delay column some split-phase Wait
// waits for the wire. A cell is a form on one column; its rows are the
// form's modes.
func TestExecutorOracle(t *testing.T) {
	tl := tally{n: map[string]int{}}
	t.Run("matrix", func(t *testing.T) {
		for _, col := range commtest.Transports {
			t.Run(col.String(), func(t *testing.T) {
				view(t, nil, nil, col, -1, func(c cell) {
					c.values(0)
					c.inspections()
					c.fresh()
					c.translations()
					c.pinned()
					c.matchesRef()
					c.matchesTimeline()
					c.waited()
					if c.col == commtest.Mem || c.col == commtest.Fault {
						tl.add("runs", 1)
					}
					for _, s := range c.got.motion {
						tl.add("messages", int(s.MsgsSent))
					}
					if c.seed >= 0 && c.m.overlap {
						tl.add("split", 1)
					}
					if c.seed >= 0 && c.m.self {
						tl.add("self", 1)
						tl.add("steals in "+c.f.name, c.got.steals)
					}
				})
			})
		}
	})
	want := 0
	for _, f := range forms {
		for _, col := range []commtest.Transport{commtest.Mem, commtest.Fault} {
			want += len(f.ranks(col)) * len(f.modes()) * (1 + f.trials)
		}
	}
	if tl.n["runs"] < want {
		t.Logf("%d of %d mem and fault runs checked: non-vacuity not checked", tl.n["runs"], want)
		return
	}
	if tl.n["split"] < 200 || tl.n["self"] < 200 {
		t.Errorf("%d split-phase and %d self-scheduled randomized comparisons, want >= 200 each", tl.n["split"], tl.n["self"])
	}
	if tl.n["steals in sum-pair"] == 0 || tl.n["steals in sum-rows"] == 0 || tl.n["messages"] == 0 {
		t.Errorf("the matrix is vacuous: %v", tl.n)
	}
	t.Logf("tally: %v", tl.n)
}

// The tests below are slices of the matrix, each held to one of the
// contracts TestExecutorOracle checks everywhere: the named forms (nil:
// every form) in the named modes (nil: each form's modes) on one column
// over the form's rank counts (shape.ranks), the pinned instance plus the
// given number of random ones on the mem and fault columns. They share
// their runs with the matrix (see memoRun).

func TestSumLoopMatchesSequential(t *testing.T) {
	view(t, []string{"sum-pair", "sum-rows"}, []mode{blocking}, commtest.Mem, 0, func(c cell) { c.values(0) })
}

func TestSumLoopReusesInspector(t *testing.T) {
	view(t, []string{"sum-pair"}, []mode{blocking}, commtest.Mem, 0, cell.inspections)
}

func TestSumLoopAfterRedistributeStillCorrect(t *testing.T) {
	view(t, []string{"sum-pair"}, nil, commtest.Fault, 0, func(c cell) { c.values(4) })
}

func TestPairLoopMatchesSequential(t *testing.T) {
	view(t, []string{"pair"}, nil, commtest.Mem, 0, func(c cell) { c.values(0) })
}

func TestPairLoopInspectorReuse(t *testing.T) {
	view(t, []string{"pair"}, nil, commtest.Mem, 0, cell.inspections)
}

func TestPairLoopAfterIterationRedistribute(t *testing.T) {
	view(t, []string{"pair"}, nil, commtest.Fault, 0, func(c cell) { c.values(7) })
}

func TestPairLoopIterationRedistributeKeepsTranslations(t *testing.T) {
	view(t, []string{"pair", "fused-pair"}, nil, commtest.Mem, 0, cell.translations)
}

func TestOverlapPropertyBitIdentical(t *testing.T) {
	view(t, []string{"sum-pair", "sum-rows"}, []mode{overlap, both}, commtest.Fault, 1, matchesBlocking)
}

func TestOverlapParityTCP(t *testing.T) {
	view(t, []string{"sum-pair"}, []mode{overlap}, commtest.TCP, 0, matchesBlocking)
}

func TestOverlapParityDelay(t *testing.T) {
	view(t, []string{"sum-pair"}, []mode{overlap}, commtest.Delay, 0, func(c cell) {
		matchesBlocking(c)
		c.waited()
	})
}

func TestSelfSchedPropertyBitIdentical(t *testing.T) {
	view(t, []string{"sum-pair", "sum-rows"}, []mode{selfsched, both}, commtest.Mem, 1, matchesBlocking)
}

func TestSharedSchedMatchesUnshared(t *testing.T) {
	view(t, []string{"shared"}, nil, commtest.Mem, 0, cell.matchesRef)
}

func TestSharedSchedFusedExecution(t *testing.T) {
	view(t, []string{"fused-sum", "fused-pair"}, nil, commtest.Mem, 0, cell.matchesRef)
}

func TestSharedSchedTracksAdaptAndRedistribute(t *testing.T) {
	view(t, []string{"shared", "fused-sum", "fused-pair"}, nil, commtest.Fault, 0, cell.inspections)
}

func TestRecycledStorageMatchesFreshAllocation(t *testing.T) {
	view(t, nil, nil, commtest.Mem, 0, cell.fresh)
}

func TestPrivateGroupParity(t *testing.T) {
	view(t, []string{"sum-pair", "pair"}, []mode{blocking}, commtest.Mem, 0, func(c cell) {
		c.pinned()
		c.inspections()
		c.values(0)
	})
}

// matchesBlocking holds a mode's run to blocking on the same column: bits
// and counts, and the virtual timeline.
func matchesBlocking(c cell) {
	c.matchesRef()
	c.matchesTimeline()
}

// cell is one run of a row on a column, with the runs it is compared with.
type cell struct {
	t     *testing.T
	label string
	f     form
	m     mode
	col   commtest.Transport
	n     int
	seed  int64
	got   *result
	get   func(shape, mode) *result
}

// view runs, in parallel with other tests, the named forms (nil: all) in
// the named modes (nil: each form's modes) on col over the form's rank
// counts, on the pinned instance and the first trials random ones (-1: the
// form's own count) on the mem and fault columns, handing every run to
// check.
func view(t *testing.T, names []string, modes []mode, col commtest.Transport, trials int, check func(cell)) {
	t.Parallel()
	for _, f := range forms {
		if names != nil && !slices.Contains(names, f.name) {
			continue
		}
		var ms []mode
		for _, m := range f.modes() {
			if modes == nil || slices.Contains(modes, m) {
				ms = append(ms, m)
			}
		}
		seeds, k := []int64{-1}, trials
		if k < 0 {
			k = f.trials
		}
		for s := range k {
			if col == commtest.Mem || col == commtest.Fault {
				seeds = append(seeds, int64(s))
			}
		}
		for _, n := range f.ranks(col) {
			t.Run(fmt.Sprintf("%s/p%d", f.name, n), func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					get := func(s shape, m mode) *result { return memoRun(t, runKey{s, m, col, n, seed}) }
					for _, m := range ms {
						label := fmt.Sprintf("%s, seed %d", m.name, seed)
						check(cell{t, label, f, m, col, n, seed, get(f.shape, m), get})
					}
				}
			})
		}
	}
}

// values holds the run to the sequential loop from step from on.
func (c cell) values(from int) {
	c.t.Helper()
	in := c.got.in
	var wants [3][2][]float64 // [list version][loop]
	for s := from; s < len(c.got.vals); s++ {
		st := script[s]
		for a, vals := range c.got.vals[s] {
			want := wants[st.list][a]
			if want == nil {
				want = in.sequential(c.f.shape, a, st.list)
				wants[st.list][a] = want
			}
			for i, v := range vals {
				w := want[i]
				if in.exact[i%in.w] && math.Float64bits(v) != math.Float64bits(w) || math.Abs(v-w) > 1e-9 {
					c.t.Errorf("%s, %s: loop %d at %d is %v, the sequential loop gives %v", c.label, st.name, a, i, v, w)
					break
				}
			}
		}
	}
}

// inspections holds every rank's inspector runs to the script's verdicts.
func (c cell) inspections() {
	c.t.Helper()
	for s, insps := range c.got.insp {
		for r, insp := range insps {
			if insp != wantInspections[s] {
				c.t.Errorf("%s, %s: rank %d has inspected %d times, want %d", c.label, script[s].name, r, insp, wantInspections[s])
			}
		}
	}
}

// fresh holds a fresh program at the final layout and lists to the chained
// one, bit for bit (a run of the whole script).
func (c cell) fresh() {
	c.t.Helper()
	last := len(script) - 1
	for a := range c.got.fresh {
		if !sameBits(c.got.fresh[a], c.got.vals[last][a]) {
			c.t.Errorf("%s: loop %d of a fresh program at the final layout differs from the chained program's", c.label, a)
		}
	}
}

// translations: moving only the iteration decomposition of a pair form
// leaves the data distribution, so the group keeps the translations its
// hash table caches.
func (c cell) translations() {
	c.t.Helper()
	if !c.f.pair || len(c.got.tables) < len(script) {
		return
	}
	last := len(script) - 1
	for r := range c.got.tables[last] {
		before, same, moved := c.got.tables[last-2][r], c.got.tables[last-1][r], c.got.tables[last][r]
		if same.ht != before.ht || same.summary != before.summary || moved.ht != before.ht || moved.len < same.len {
			c.t.Errorf("%s: rank %d: hash table %+v, then %+v and %+v across two iteration redistributions, want the cached translations kept",
				c.label, r, before, same, moved)
		}
	}
}

// pinned holds the blocking mem run on the pinned instance to the form's
// pinned clocks.
func (c cell) pinned() {
	c.t.Helper()
	if c.seed >= 0 || c.col != commtest.Mem || c.m != blocking {
		return
	}
	for r, want := range c.f.pinned[c.n] {
		if !slices.Equal(c.got.clocks[r][:len(want)], want) {
			c.t.Errorf("rank %d: clocks %#x, pinned %#x", r, c.got.clocks[r][:len(want)], want)
		}
	}
}

// matchesRef holds the run to its reference run on the same column: REAL
// arrays bit for bit, and the executor's data-motion counts — equal, or
// half the messages for a fused run.
func (c cell) matchesRef() {
	c.t.Helper()
	got, want := c.got, c.get(c.f.ref(), blocking)
	for s, vals := range want.vals {
		for a := range vals {
			if !sameBits(got.vals[s][a], vals[a]) {
				c.t.Errorf("%s, %s: loop %d differs from the reference run", c.label, script[s].name, a)
			}
		}
	}
	for r, wm := range want.motion {
		gm, half := got.motion[r], int64(1)
		if c.f.fused {
			half = 2
		}
		if gm.MsgsSent*half != wm.MsgsSent || gm.MsgsRecv*half != wm.MsgsRecv ||
			!c.f.fused && (gm.BytesSent != wm.BytesSent || gm.BytesRecv != wm.BytesRecv) {
			c.t.Errorf("%s: rank %d data motion %+v, reference %+v", c.label, r, gm, wm)
		}
	}
}

// matchesTimeline holds a one-loop run to the run on its timeline (see
// mode.timeline): every rank's clock after every step, and the run's final
// clocks and statistics, bit for bit.
func (c cell) matchesTimeline() {
	c.t.Helper()
	if c.f.two {
		return
	}
	got, want := c.got, c.get(c.f.ref(), c.m.timeline())
	for r := range want.clocks {
		if !slices.Equal(got.clocks[r], want.clocks[r]) {
			c.t.Errorf("%s: rank %d: clocks %#x, reference %#x", c.label, r, got.clocks[r], want.clocks[r])
		}
	}
	for r := range want.rep.Clocks {
		if math.Float64bits(got.rep.Clocks[r]) != math.Float64bits(want.rep.Clocks[r]) || got.rep.Stats[r] != want.rep.Stats[r] {
			c.t.Errorf("%s: rank %d final clock %v stats %+v, reference %v %+v", c.label, r,
				got.rep.Clocks[r], got.rep.Stats[r], want.rep.Clocks[r], want.rep.Stats[r])
		}
	}
}

// waited holds a split-phase run on the Delay column to its point: some
// Wait found its frame still on the wire. The gather and scatter receives
// (schedule's tags 101 and 102) of an overlap run are issued in Wait, after
// the interior window.
func (c cell) waited() {
	c.t.Helper()
	if c.col != commtest.Delay || !c.m.overlap || c.n < 2 {
		return
	}
	if fl := c.got.rep.InFlight; fl[101]+fl[102] == 0 {
		c.t.Errorf("%s: no gather or scatter receive began with its frame on the wire (%v): no Wait waited", c.label, fl)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

var sumLoopClocks = map[int][][]uint64{
	1: {
		{0x3f526f1866a92c5f, 0x3f5cc68a3d861d67, 0x3f66b09b93c4c369, 0x3f6efa970a732088, 0x3f74b1e8c5d1b0e0, 0x3f7747c53b88ed22},
	},
	2: {
		{0x3f63994f71d8348b, 0x3f69ec7abd0a8cf7, 0x3f718ac1e568242b, 0x3f765d59cd50d634, 0x3f8257a0d0c57fd3, 0x3f83f44e460923c5},
		{0x3f6333a3f16156b2, 0x3f69bc293b8d9fbb, 0x3f71bfc5fe268c07, 0x3f764b1049a438dc, 0x3f828d10494e52a2, 0x3f842cad5d1ae335},
	},
	3: {
		{0x3f6501af579bf338, 0x3f6af0464e98ea46, 0x3f71f47430a96b1d, 0x3f765ca344125397, 0x3f8307da14081fb9, 0x3f84845befbfebf0},
		{0x3f65051fcf7e2d01, 0x3f6a83a464ceb6b0, 0x3f71928f0e504fcf, 0x3f75fabe21b93849, 0x3f831c7ce3557a60, 0x3f847d3a934ed1d0},
		{0x3f64e76db7e965de, 0x3f6acd0ae02dd2a1, 0x3f71a4423f14bdd3, 0x3f760ab9168c8969, 0x3f8323d3efabc9fa, 0x3f849b42911f21b3},
	},
}

var pairLoopClocks = map[int][][]uint64{
	1: {
		{0x3f3fd3041e72b1ce, 0x3f4421f5f40d8376, 0x3f504e2bdcfd9c77, 0x3f568b5cbff47732, 0x3f5ef436f407fa18, 0x3f608838733907b0},
	},
	2: {
		{0x3f6a20d30951e34c, 0x3f6dc6fad0c12321, 0x3f7180c663fcff99, 0x3f746e81bddac184, 0x3f7e80a95db1e1e9, 0x3f803a6fe870415e},
		{0x3f69bad1a29f7cb1, 0x3f6d6db996e50958, 0x3f71a85e836e091d, 0x3f7445a77f0a7727, 0x3f7dfa5c271d504c, 0x3f7fee929a4bf120},
	},
	3: {
		{0x3f6e3103023df2d3, 0x3f713485c3a3d936, 0x3f7432a7721f5734, 0x3f772ed077fd11b8, 0x3f81be233bc45152, 0x3f82a0d19c3f6649},
		{0x3f6ec20d00439cb6, 0x3f7109c855c4ad99, 0x3f741d2de33d26a7, 0x3f771b7a84d66906, 0x3f81b28a565aaa99, 0x3f82ab5355679088},
		{0x3f6e8d1e6114170b, 0x3f7154c6d6be9323, 0x3f7457bb52d1df03, 0x3f7753e458af9987, 0x3f81aee98cf6f3e7, 0x3f829f7f61b4fbc9},
	},
}
