package fortd

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/loopir"
)

// Program is a compiled Fortran D program: parsed, semantically checked,
// analyzed by the program-level dataflow pass, ready to be instantiated on
// SPMD ranks.
type Program struct {
	ast *program
	ir  *irProgram
}

// CompileFile parses and checks src, attributing diagnostic positions to
// the given file name. It is the front end's one error exit: the first
// diagnostic any production raises (fail) is recovered here, and any other
// panic is a bug and goes on.
func CompileFile(file, src string) (pr *Program, err error) {
	defer func() {
		if e := recover(); e != nil {
			b, ok := e.(bailout)
			if !ok {
				panic(e)
			}
			pr, err = nil, b.posError
		}
	}()
	ast := parse(file, src)
	return &Program{ast: ast, ir: analyze(file, ast)}, nil
}

// Compile parses and checks src with positions attributed to "<input>".
func Compile(src string) (*Program, error) {
	return CompileFile("<input>", src)
}

// NumLoops returns the number of FORALL nests (each counted once, even when
// nested in a DO time loop).
func (pr *Program) NumLoops() int { return len(pr.ir.loops) }

// adaptHook is the host callback an ADAPT statement invokes: the host mutates
// the named indirection array in place (list regeneration in the paper's
// adaptive applications). Without a registered adapter, ADAPT bumps the
// array's modification record (IndArray.Touch), forcing non-hoisted
// inspectors to rebuild — the conservative model of "the host changed it".
type adaptHook func(name string, ia *loopir.IndArray)

// lowered is a sum or pair FORALL bound to the runtime: what the Instance
// asks of *loopir.SumLoop and *loopir.PairLoop alike.
type lowered interface {
	Inspect()
	Execute()
	SetHoisted(bool)
	Share(*loopir.SharedSched)
	Inspections() int
}

// Instance is a program instantiated on one SPMD rank: decompositions,
// aligned arrays and compiled loops bound to the loopir runtime. Hosts set
// array contents and CSR indirections by name, optionally redistribute
// MAP-distributed decompositions, and call Step to execute the statements.
//
// Instantiate lowers every loop independently (-O0); InstantiateOptimized
// additionally applies the program-level analysis plan (-O): schedule-
// sharing groups, hoisted inspectors at DO entry, fused message runs and
// fused append data motion.
type Instance struct {
	prog  *Program
	p     *comm.Proc
	lp    *loopir.Program
	decs  map[string]*loopir.Decomposition
	reals map[string]*loopir.RealArray
	inds  map[string]*loopir.IndArray
	// loops[ord] is the lowered sum or pair loop (nil for an append loop,
	// executed per encounter during Step); shared[ord] marks a loop that
	// delegates its preprocessing to a group schedule.
	loops  []lowered
	shared []bool

	optimized bool
	adapter   adaptHook

	// Optimization plan (nil/empty at -O0).
	groups  []*loopir.SharedSched
	hoistAt map[*irScope][]lowered
	runAt   map[int][]int // run-starting ord -> ords of the fused run

	appendBuilds int // schedule builds of -O0 append size recomputation
}

// AppendResult is the outcome of one REDUCE(APPEND) execution on this rank:
// the records delivered to the rows this rank owns (arrival order) and the
// new size of every owned row. Loop identifies the FORALL in program order;
// an append inside a DO yields one result per iteration.
type AppendResult struct {
	Loop    int
	Records []float64
	sizes   []int32
}

// Instantiate lowers the program onto one SPMD rank with per-loop
// preprocessing (-O0). Collective: all ranks must instantiate the same
// program together.
func (pr *Program) Instantiate(p *comm.Proc) *Instance {
	return pr.instantiate(p, false)
}

// InstantiateOptimized lowers the program with the program-level
// optimization plan applied (-O): loops with identical indirection usage
// share one schedule, loop-invariant inspectors hoist out of DO time loops,
// adjacent same-schedule loops fuse their messages, and REDUCE(APPEND)
// derives row sizes from the data motion. Results are bit-identical to
// Instantiate; only preprocessing work and message counts drop. Collective.
func (pr *Program) InstantiateOptimized(p *comm.Proc) *Instance {
	return pr.instantiate(p, true)
}

func (pr *Program) instantiate(p *comm.Proc, optimized bool) *Instance {
	in := &Instance{
		prog:      pr,
		p:         p,
		lp:        loopir.NewProgram(p),
		decs:      map[string]*loopir.Decomposition{},
		reals:     map[string]*loopir.RealArray{},
		inds:      map[string]*loopir.IndArray{},
		optimized: optimized,
	}
	for k := range pr.ast.decls {
		d := &pr.ast.decls[k]
		switch d.kind {
		case declDecomposition:
			if pr.ir.syms.dists[d.name] == distCyclic {
				in.decs[d.name] = in.lp.CyclicDecomposition(d.n)
			} else {
				in.decs[d.name] = in.lp.Decomposition(d.n)
			}
		case declReal:
			in.reals[d.name] = in.decs[d.decomp].AlignReal(d.width)
		case declIndirection:
			if d.csr {
				in.inds[d.name] = in.decs[d.decomp].AlignIndCSR()
			} else {
				in.inds[d.name] = in.decs[d.decomp].AlignIndFlat(d.width)
			}
		}
	}
	// Compile the sum and pair loops now; append loops are executed per
	// encounter during Step.
	in.loops = make([]lowered, len(pr.ir.loops))
	in.shared = make([]bool, len(pr.ir.loops))
	for _, l := range pr.ir.loops {
		x, f := in.reals[l.readArr], in.reals[l.redArr]
		body := compileBody(l)
		switch l.f.kind {
		case loopSum:
			in.loops[l.ord] = in.lp.NewSumLoop(in.inds[l.f.innerInd], x, f, l.flops, body)
		case loopPair:
			in.loops[l.ord] = in.lp.NewPairLoop(in.inds[l.ia], in.inds[l.ib], x, f, l.flops,
				func(_ int, xi, xj, fi, fj []float64) { body(xi, xj, fi, fj) })
		}
	}
	if optimized {
		in.applyPlan()
	}
	return in
}

// applyPlan wires the dataflow-analysis results into the lowered loops.
func (in *Instance) applyPlan() {
	ir := in.prog.ir
	in.hoistAt = map[*irScope][]lowered{}
	in.runAt = map[int][]int{}

	// Schedule-sharing groups: one SharedSched per group, every member loop
	// delegates its preprocessing to it.
	// chaosvet:ignore clock-charge — plan wiring only; charges happen when the loops run
	for _, g := range ir.groups {
		shared := in.lp.NewSharedSched(in.decs[ir.loops[g[0]].dataDec])
		for _, ord := range g {
			in.loops[ord].Share(shared)
			in.shared[ord] = true
		}
		in.groups = append(in.groups, shared)
	}

	// Hoisted inspectors run at the entry of the DO they hoist out of; the
	// in-loop guard is compiled down to the re-check-only form.
	for _, l := range ir.loops {
		if l.hoistScope != nil {
			in.hoistAt[l.hoistScope] = append(in.hoistAt[l.hoistScope], in.loops[l.ord])
			in.loops[l.ord].SetHoisted(true)
		}
	}

	for _, run := range ir.fuseRuns {
		in.runAt[run[0]] = run
	}
}

// Decomposition returns the named decomposition.
func (in *Instance) Decomposition(name string) *loopir.Decomposition {
	d, ok := in.decs[name]
	if !ok {
		panic("fortd: unknown decomposition " + name)
	}
	return d
}

// Real returns the named real array.
func (in *Instance) Real(name string) *loopir.RealArray {
	a, ok := in.reals[name]
	if !ok {
		panic("fortd: unknown real array " + name)
	}
	return a
}

// ind returns the named indirection array.
func (in *Instance) ind(name string) *loopir.IndArray {
	a, ok := in.inds[name]
	if !ok {
		panic("fortd: unknown indirection array " + name)
	}
	return a
}

// Redistribute executes `DISTRIBUTE name(map)` for a MAP-distributed
// decomposition: newOwners gives the new owner of each local element
// (typically from an extrinsic partitioner, §5.1.1). Collective.
func (in *Instance) Redistribute(name string, newOwners []int32) {
	if in.prog.ir.syms.dists[name] != distMap {
		panic(fmt.Sprintf("fortd: decomposition %q was not declared DISTRIBUTE(%s)", name, "MAP"))
	}
	in.Decomposition(name).Redistribute(newOwners)
}

// Step executes the whole statement tree once, in program order: FORALLs
// run their loops (DO bodies repeat theirs), ADAPTs invoke the host
// adapter. Sum and pair loops accumulate into their reduction arrays;
// append executions return their results. Each inspector region (hoisted
// inspectors, a loop's guard, a fused run's guards) is charged to the
// rank's "inspector" phase and each execution to "executor" (comm.Proc.Mark,
// read back from Report.Phases). Collective.
func (in *Instance) Step() []AppendResult {
	var out []AppendResult
	in.execScope(in.prog.ir.root, &out)
	return out
}

// execScope runs one loop-nest level (the program top level or a DO body).
func (in *Instance) execScope(sc *irScope, out *[]AppendResult) {
	if in.optimized && len(in.hoistAt[sc]) > 0 {
		// Hoisted inspectors: loop-invariant preprocessing once at DO entry.
		in.p.SkipPhase()
		for _, l := range in.hoistAt[sc] {
			l.Inspect()
		}
		in.p.Mark("inspector")
	}
	reps := 1
	if sc.doN > 0 {
		reps = sc.doN
	}
	for it := 0; it < reps; it++ {
		for i := 0; i < len(sc.stmts); i++ {
			st := &sc.stmts[i]
			switch {
			case st.child != nil:
				in.execScope(st.child, out)
			case st.adapt != "":
				ia := in.inds[st.adapt]
				if in.adapter != nil {
					in.adapter(st.adapt, ia)
				} else {
					ia.Touch()
				}
			case st.loop != nil:
				if in.optimized {
					if run, ok := in.runAt[st.loop.ord]; ok {
						in.execFusedRun(run)
						i += len(run) - 1
						continue
					}
				}
				in.execLoop(st.loop, out)
			}
		}
	}
}

// execLoop runs one FORALL, charging its inspector and executor to the
// rank's phase ledger separately (the Table 6 split). Host time between
// regions, an adapter's included, is charged to no phase.
func (in *Instance) execLoop(l *irLoop, out *[]AppendResult) {
	p := in.p
	if l.f.kind == loopAppend {
		dest := in.inds[l.f.appendDest.sub.Ind]
		src := in.reals[l.f.appendSrc.array]
		target := in.decs[l.dataDec]
		_, destRows := dest.CSR()
		p.SkipPhase()
		var recv []float64
		var sizes []int32
		if in.optimized {
			recv, sizes = loopir.ReduceAppendFused(p, target.Dist(), destRows, src.Local(), l.width)
		} else {
			recv, sizes = loopir.ReduceAppend(p, target.Dist(), destRows, src.Local(), l.width)
			in.appendBuilds++
		}
		p.Mark("executor")
		*out = append(*out, AppendResult{Loop: l.ord, Records: recv, sizes: sizes})
		return
	}
	lo := in.loops[l.ord]
	p.SkipPhase()
	lo.Inspect()
	p.Mark("inspector")
	lo.Execute()
	p.Mark("executor")
}

// execFusedRun executes a fused run of same-group loops as one
// communication phase.
func (in *Instance) execFusedRun(run []int) {
	p := in.p
	p.SkipPhase()
	// chaosvet:ignore clock-charge — Inspect charges internally
	for _, ord := range run {
		in.loops[ord].Inspect()
	}
	p.Mark("inspector")
	if in.prog.ir.loops[run[0]].f.kind == loopSum {
		loopir.ExecuteFusedSum(typedRun[*loopir.SumLoop](in.loops, run))
	} else {
		loopir.ExecuteFusedPair(typedRun[*loopir.PairLoop](in.loops, run))
	}
	p.Mark("executor")
}

// typedRun collects a fused run's loops as the concrete type loopir's fused
// executor takes.
func typedRun[T lowered](loops []lowered, run []int) []T {
	out := make([]T, len(run))
	for i, ord := range run {
		out[i] = loops[ord].(T)
	}
	return out
}

// Inspections returns the cumulative inspector executions of the i-th sum
// loop (program order over sum loops), exposing the §5.3 reuse behaviour.
func (in *Instance) Inspections(i int) int {
	return in.loops[in.prog.ir.ofKind(loopSum)[i].ord].Inspections()
}

// InspectorBuilds returns the cumulative number of inspector builds this
// rank paid: per-loop (or per-group) hash/schedule builds plus the per-
// execution schedule builds of naive append size recomputation. The -O0 vs
// -O delta on this counter is what BENCH_loopir tracks.
func (in *Instance) InspectorBuilds() int {
	n := in.appendBuilds
	for ord, l := range in.loops {
		if l != nil && !in.shared[ord] {
			n += l.Inspections()
		}
	}
	for _, g := range in.groups {
		n += g.Inspections()
	}
	return n
}

// compileBody turns the REDUCE(SUM) statements of a sum or pair loop into a
// loopir.PairBody by interpreting the expression AST per component: each
// reference and each target resolves to the side analysis marked it with.
func compileBody(l *irLoop) loopir.PairBody {
	stmts := l.f.reduces
	width := l.width
	return func(xi, xj, fi, fj []float64) {
		for c := 0; c < width; c++ {
			for k := range stmts {
				v := evalExpr(stmts[k].value, xi, xj, c)
				if stmts[k].target.sub.j {
					fj[c] += v
				} else {
					fi[c] += v
				}
			}
		}
	}
}

// evalExpr interprets an expression for component c of the pair (xi, xj).
func evalExpr(e expr, xi, xj []float64, c int) float64 {
	switch v := e.(type) {
	case *numExpr:
		return v.v
	case *negExpr:
		return -evalExpr(v.e, xi, xj, c)
	case *binExpr:
		l := evalExpr(v.l, xi, xj, c)
		r := evalExpr(v.r, xi, xj, c)
		switch v.op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		default:
			return l / r
		}
	case *refExpr:
		if v.sub.j {
			return xj[c]
		}
		return xi[c]
	default:
		panic(fmt.Sprintf("fortd: unknown expression node %T", e))
	}
}
