package fortd

import "sort"

// symbols is the semantic-analysis symbol table.
type symbols struct {
	decomps map[string]*decl // DECOMPOSITION
	dists   map[string]distKind
	reals   map[string]*decl // REAL arrays
	inds    map[string]*decl // INDIRECTION arrays
}

// analyze performs semantic checking: it resolves the declarations, checks
// each statement into the irScope tree (one irLoop per FORALL), and runs the
// program-level analyses over that tree.
func analyze(file string, prog *program) *irProgram {
	syms := &symbols{
		decomps: map[string]*decl{},
		dists:   map[string]distKind{},
		reals:   map[string]*decl{},
		inds:    map[string]*decl{},
	}
	declared := func(name string) bool {
		_, d := syms.decomps[name]
		_, r := syms.reals[name]
		_, i := syms.inds[name]
		return d || r || i
	}
	for k := range prog.decls {
		d := &prog.decls[k]
		switch d.kind {
		case declDecomposition:
			if declared(d.name) {
				fail(file, d.pos, "%q already declared", d.name)
			}
			syms.decomps[d.name] = d
			syms.dists[d.name] = distBlock
		case declDistribute:
			if _, ok := syms.decomps[d.name]; !ok {
				fail(file, d.pos, "DISTRIBUTE of undeclared decomposition %q", d.name)
			}
			syms.dists[d.name] = d.dist
		case declReal:
			if declared(d.name) {
				fail(file, d.pos, "%q already declared", d.name)
			}
			if _, ok := syms.decomps[d.decomp]; !ok {
				fail(file, d.pos, "REAL %s aligned with undeclared decomposition %q", d.name, d.decomp)
			}
			syms.reals[d.name] = d
		case declIndirection:
			if declared(d.name) {
				fail(file, d.pos, "%q already declared", d.name)
			}
			if _, ok := syms.decomps[d.decomp]; !ok {
				fail(file, d.pos, "INDIRECTION %s aligned with undeclared decomposition %q", d.name, d.decomp)
			}
			syms.inds[d.name] = d
		}
	}

	ir := &irProgram{file: file, syms: syms, root: &irScope{}, targets: map[string]string{}}
	ir.analyzeScope(ir.root, prog.stmts)
	ir.findGroups()
	ir.findHoists()
	ir.findFuseRuns()
	return ir
}

// analyzeScope checks one statement sequence (the program body or a DO
// body) into sc.
func (ir *irProgram) analyzeScope(sc *irScope, stmts []stmt) {
	for k := range stmts {
		s := &stmts[k]
		switch s.kind {
		case stmtForall:
			sc.stmts = append(sc.stmts, irStmt{loop: ir.analyzeForall(s.forall, sc)})
		case stmtAdapt:
			if _, ok := ir.syms.inds[s.adapt]; !ok {
				fail(ir.file, s.pos, "ADAPT of undeclared indirection array %q", s.adapt)
			}
			sc.stmts = append(sc.stmts, irStmt{adapt: s.adapt})
		case stmtDo:
			child := &irScope{parent: sc, doN: s.doN, pos: s.pos}
			ir.analyzeScope(child, s.body)
			sc.stmts = append(sc.stmts, irStmt{child: child})
		}
	}
}

// analyzeForall classifies one FORALL nest into its irLoop and records it in
// program order.
func (ir *irProgram) analyzeForall(f *forall, sc *irScope) *irLoop {
	if _, ok := ir.syms.decomps[f.overDec]; !ok {
		fail(ir.file, f.pos, "FORALL over undeclared decomposition %q", f.overDec)
	}
	l := &irLoop{f: f, ord: len(ir.loops), scope: sc, group: -1}
	switch f.kind {
	case loopSum:
		ir.analyzeSum(l)
	case loopPair:
		ir.analyzePair(l)
	case loopAppend:
		ir.analyzeAppend(l)
	}
	// An indirection array's values index one decomposition in every loop
	// that reads it; the synthetic data and the hash tables rely on that.
	for _, ind := range l.inds {
		if t, ok := ir.targets[ind]; ok && t != l.dataDec {
			fail(ir.file, f.pos, "indirection %q indexes %q here but %q in an earlier FORALL", ind, l.dataDec, t)
		}
		ir.targets[ind] = l.dataDec
	}
	ir.loops = append(ir.loops, l)
	return l
}

// analyzeSum checks the Figure 10 template constraints: a nested FORALL
// over a CSR indirection aligned with the loop decomposition, whose
// subscripts are the outer variable (the i side) or ind(innerVar) (the j
// side).
func (ir *irProgram) analyzeSum(l *irLoop) {
	file, f := ir.file, l.f
	ind, ok := ir.syms.inds[f.innerInd]
	if !ok {
		fail(file, f.pos, "inner FORALL over undeclared indirection %q", f.innerInd)
	}
	if !ind.csr {
		fail(file, f.pos, "inner FORALL requires a CSR indirection, %q is flat", f.innerInd)
	}
	if ind.decomp != f.overDec {
		fail(file, f.pos, "indirection %q is aligned with %q, not with the loop decomposition %q",
			f.innerInd, ind.decomp, f.overDec)
	}
	l.inds = []string{f.innerInd}
	l.dataDec = f.overDec
	ir.analyzeReduces(l, func(s *subscript) {
		if s.Ind == "" {
			if s.Var != f.outerVar {
				fail(file, s.pos, "direct subscript must be the outer variable %q, found %q", f.outerVar, s.Var)
			}
			return
		}
		if s.Ind != f.innerInd {
			fail(file, s.pos, "only the loop indirection %q may subscript here, found %q", f.innerInd, s.Ind)
		}
		if s.Var != f.innerVar {
			fail(file, s.pos, "indirection subscript must be %s(%s)", f.innerInd, f.innerVar)
		}
		s.j = true
	})
}

// analyzePair checks the Figure 2 bonded-template constraints: every
// subscript is flatInd(outerVar) with at most two distinct flat
// indirections aligned with the iteration decomposition; the first one seen
// is the i side, the other the j side.
func (ir *irProgram) analyzePair(l *irLoop) {
	file, f := ir.file, l.f
	ir.analyzeReduces(l, func(s *subscript) {
		if s.Ind == "" {
			fail(file, s.pos, "pair-form subscripts must go through an indirection array")
		}
		if s.Var != f.outerVar {
			fail(file, s.pos, "subscript variable must be %q", f.outerVar)
		}
		ind, ok := ir.syms.inds[s.Ind]
		if !ok {
			fail(file, s.pos, "undeclared indirection %q", s.Ind)
		}
		if ind.csr {
			fail(file, s.pos, "pair-form indirection %q must be flat WIDTH 1", s.Ind)
		}
		if ind.decomp != f.overDec {
			fail(file, s.pos, "indirection %q aligned with %q, not the loop decomposition %q",
				s.Ind, ind.decomp, f.overDec)
		}
		switch {
		case l.ia == "" || l.ia == s.Ind:
			l.ia = s.Ind
		case l.ib == "" || l.ib == s.Ind:
			l.ib = s.Ind
			s.j = true
		default:
			fail(file, s.pos, "pair form supports at most two indirections; %q is a third", s.Ind)
		}
	})
	l.inds = []string{l.ia}
	if l.ib == "" {
		l.ib = l.ia
	} else {
		l.inds = append(l.inds, l.ib)
		sort.Strings(l.inds)
	}
}

// analyzeReduces checks the REDUCE(SUM) statements of a sum or pair loop:
// one expression walk and one array-noting rule (a single read array, a
// single reduction array of the same width, all aligned with one data
// decomposition). sub is the form's subscript rule: it validates a
// subscript and records the side it resolves to.
func (ir *irProgram) analyzeReduces(l *irLoop, sub func(s *subscript)) {
	file, f := ir.file, l.f
	noteArr := func(r *refExpr, pos srcPos, reduced bool) {
		ra, ok := ir.syms.reals[r.array]
		if !ok {
			fail(file, pos, "undeclared array %q", r.array)
		}
		if l.dataDec == "" {
			l.dataDec = ra.decomp
		} else if l.dataDec != ra.decomp {
			fail(file, pos, "arrays span decompositions %q and %q", l.dataDec, ra.decomp)
		}
		switch {
		case reduced && l.redArr == "":
			l.redArr = r.array
		case reduced && l.redArr != r.array:
			fail(file, pos, "body reduces into both %q and %q; a single reduction array is supported", l.redArr, r.array)
		case !reduced && l.readArr == "":
			l.readArr = r.array
			l.width = ra.width
		case !reduced && l.readArr != r.array:
			fail(file, pos, "body reads both %q and %q; a single read array is supported", l.readArr, r.array)
		}
		sub(&r.sub)
	}
	var walk func(e expr)
	walk = func(e expr) {
		switch v := e.(type) {
		case *binExpr:
			walk(v.l)
			walk(v.r)
		case *negExpr:
			walk(v.e)
		case *numExpr:
		case *refExpr:
			noteArr(v, v.sub.pos, false)
		default:
			fail(file, f.pos, "unknown expression node %T", e)
		}
	}
	for i := range f.reduces {
		st := &f.reduces[i]
		noteArr(&st.target, st.pos, true)
		walk(st.value)
		l.flops += exprOps(st.value) + 1 // +1 for the accumulation
	}
	if l.readArr == "" {
		fail(file, f.pos, "loop body reads no array")
	}
	if l.readArr == l.redArr {
		fail(file, f.pos, "array %q is both read and reduced; use distinct arrays", l.readArr)
	}
	if w := ir.syms.reals[l.redArr].width; w != l.width {
		fail(file, f.pos, "read array %q (width %d) and reduction array %q (width %d) differ",
			l.readArr, l.width, l.redArr, w)
	}
	l.flops *= l.width
}

// analyzeAppend checks the Figure 9/11 template constraints: the records
// src(outerVar) append to target(ind(outerVar)) through a flat indirection
// aligned, like src, with the loop decomposition.
func (ir *irProgram) analyzeAppend(l *irLoop) {
	file, f := ir.file, l.f
	dest, recs := f.appendDest.sub, f.appendSrc.sub
	target, ind, rec := f.appendDest.array, dest.Ind, f.appendSrc.array
	if _, ok := ir.syms.decomps[target]; !ok {
		fail(file, f.pos, "REDUCE(APPEND) into undeclared decomposition %q", target)
	}
	if ind == "" {
		fail(file, dest.pos, "REDUCE(APPEND) destination must be subscripted through an indirection array")
	}
	dst, ok := ir.syms.inds[ind]
	if !ok {
		fail(file, f.pos, "undeclared destination indirection %q", ind)
	}
	if dst.csr {
		fail(file, f.pos, "destination indirection %q must be flat with WIDTH 1", ind)
	}
	if dst.decomp != f.overDec {
		fail(file, f.pos, "destination %q aligned with %q, not %q", ind, dst.decomp, f.overDec)
	}
	src, ok := ir.syms.reals[rec]
	if !ok {
		fail(file, f.pos, "undeclared record array %q", rec)
	}
	if src.decomp != f.overDec {
		fail(file, f.pos, "record array %q aligned with %q, not %q", rec, src.decomp, f.overDec)
	}
	if dest.Var != f.outerVar {
		fail(file, dest.pos, "indirection subscript must be %s(%s)", ind, f.outerVar)
	}
	if recs.Ind != "" {
		fail(file, recs.pos, "record array %q must be subscripted directly by %q", rec, f.outerVar)
	}
	if recs.Var != f.outerVar {
		fail(file, recs.pos, "direct subscript must be the outer variable %q, found %q", f.outerVar, recs.Var)
	}
	l.inds = []string{ind}
	l.dataDec = target
	l.width = src.width
}

// exprOps counts arithmetic operations for the cost model.
func exprOps(e expr) int {
	switch v := e.(type) {
	case *binExpr:
		return 1 + exprOps(v.l) + exprOps(v.r)
	case *negExpr:
		return 1 + exprOps(v.e)
	default:
		return 0
	}
}
