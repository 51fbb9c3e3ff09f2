package fortd

import "sort"

// symbols is the semantic-analysis symbol table.
type symbols struct {
	decomps map[string]*decl // DECOMPOSITION
	dists   map[string]DistKind
	reals   map[string]*decl // REAL arrays
	inds    map[string]*decl // INDIRECTION arrays
}

// loopKind discriminates the FORALL forms.
type loopKind int

const (
	loopSum    loopKind = iota // Figure 10: nested CSR FORALL, REDUCE(SUM)
	loopAppend                 // Figures 9/11: REDUCE(APPEND)
	loopPair                   // Figure 2 bonded: two flat indirections, REDUCE(SUM)
)

func (k loopKind) String() string { return [...]string{"sum", "append", "pair"}[k] }

// analyze performs semantic checking: it resolves the declarations, checks
// each statement into the irScope tree (one irLoop per FORALL), and runs the
// program-level analyses over that tree.
func analyze(file string, prog *program) (*irProgram, error) {
	syms := &symbols{
		decomps: map[string]*decl{},
		dists:   map[string]DistKind{},
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
				return nil, errAt(file, d.pos, "%q already declared", d.name)
			}
			syms.decomps[d.name] = d
			syms.dists[d.name] = DistBlock
		case declDistribute:
			if _, ok := syms.decomps[d.name]; !ok {
				return nil, errAt(file, d.pos, "DISTRIBUTE of undeclared decomposition %q", d.name)
			}
			syms.dists[d.name] = d.dist
		case declReal:
			if declared(d.name) {
				return nil, errAt(file, d.pos, "%q already declared", d.name)
			}
			if _, ok := syms.decomps[d.decomp]; !ok {
				return nil, errAt(file, d.pos, "REAL %s aligned with undeclared decomposition %q", d.name, d.decomp)
			}
			syms.reals[d.name] = d
		case declIndirection:
			if declared(d.name) {
				return nil, errAt(file, d.pos, "%q already declared", d.name)
			}
			if _, ok := syms.decomps[d.decomp]; !ok {
				return nil, errAt(file, d.pos, "INDIRECTION %s aligned with undeclared decomposition %q", d.name, d.decomp)
			}
			syms.inds[d.name] = d
		}
	}

	ir := &irProgram{file: file, syms: syms, root: &irScope{}, targets: map[string]string{}}
	if err := ir.analyzeScope(ir.root, prog.stmts); err != nil {
		return nil, err
	}
	ir.findGroups()
	ir.findHoists()
	ir.findFuseRuns()
	return ir, nil
}

// analyzeScope checks one statement sequence (the program body or a DO
// body) into sc.
func (ir *irProgram) analyzeScope(sc *irScope, stmts []stmt) error {
	for k := range stmts {
		s := &stmts[k]
		switch s.kind {
		case stmtForall:
			l, err := ir.analyzeForall(s.forall, sc)
			if err != nil {
				return err
			}
			sc.stmts = append(sc.stmts, irStmt{loop: l})
		case stmtAdapt:
			if _, ok := ir.syms.inds[s.adapt]; !ok {
				return errAt(ir.file, s.pos, "ADAPT of undeclared indirection array %q", s.adapt)
			}
			sc.stmts = append(sc.stmts, irStmt{adapt: s.adapt})
		case stmtDo:
			child := &irScope{parent: sc, doN: s.doN, pos: s.pos}
			if err := ir.analyzeScope(child, s.body); err != nil {
				return err
			}
			sc.stmts = append(sc.stmts, irStmt{child: child})
		}
	}
	return nil
}

// analyzeForall classifies one FORALL nest into its irLoop and records it in
// program order.
func (ir *irProgram) analyzeForall(f *forall, sc *irScope) (*irLoop, error) {
	if _, ok := ir.syms.decomps[f.overDec]; !ok {
		return nil, errAt(ir.file, f.pos, "FORALL over undeclared decomposition %q", f.overDec)
	}
	l := &irLoop{f: f, ord: len(ir.loops), scope: sc, group: -1}
	var err error
	switch {
	case f.isAppend:
		l.kind = loopAppend
		err = ir.analyzeAppend(l)
	case f.isPair:
		l.kind = loopPair
		err = ir.analyzePair(l)
	default:
		err = ir.analyzeSum(l)
	}
	if err != nil {
		return nil, err
	}
	// An indirection array's values index one decomposition in every loop
	// that reads it; the synthetic data and the hash tables rely on that.
	for _, ind := range l.inds {
		if t, ok := ir.targets[ind]; ok && t != l.dataDec {
			return nil, errAt(ir.file, f.pos, "indirection %q indexes %q here but %q in an earlier FORALL", ind, l.dataDec, t)
		}
		ir.targets[ind] = l.dataDec
	}
	ir.loops = append(ir.loops, l)
	return l, nil
}

// analyzeSum checks the Figure 10 template constraints: a nested FORALL
// over a CSR indirection aligned with the loop decomposition, whose
// subscripts are the outer variable (the i side) or ind(innerVar) (the j
// side).
func (ir *irProgram) analyzeSum(l *irLoop) error {
	file, f := ir.file, l.f
	ind, ok := ir.syms.inds[f.innerInd]
	if !ok {
		return errAt(file, f.pos, "inner FORALL over undeclared indirection %q", f.innerInd)
	}
	if !ind.csr {
		return errAt(file, f.pos, "inner FORALL requires a CSR indirection, %q is flat", f.innerInd)
	}
	if ind.decomp != f.overDec {
		return errAt(file, f.pos, "indirection %q is aligned with %q, not with the loop decomposition %q",
			f.innerInd, ind.decomp, f.overDec)
	}
	l.inds = []string{f.innerInd}
	l.dataDec = f.overDec
	return ir.analyzeReduces(l, func(s *subscript) error {
		if s.Ind == "" {
			if s.Var != f.outerVar {
				return errAt(file, s.pos, "direct subscript must be the outer variable %q, found %q", f.outerVar, s.Var)
			}
			return nil
		}
		if s.Ind != f.innerInd {
			return errAt(file, s.pos, "only the loop indirection %q may subscript here, found %q", f.innerInd, s.Ind)
		}
		if s.Var != f.innerVar {
			return errAt(file, s.pos, "indirection subscript must be %s(%s)", f.innerInd, f.innerVar)
		}
		s.j = true
		return nil
	})
}

// analyzePair checks the Figure 2 bonded-template constraints: every
// subscript is flatInd(outerVar) with at most two distinct flat
// indirections aligned with the iteration decomposition; the first one seen
// is the i side, the other the j side.
func (ir *irProgram) analyzePair(l *irLoop) error {
	file, f := ir.file, l.f
	err := ir.analyzeReduces(l, func(s *subscript) error {
		if s.Ind == "" {
			return errAt(file, s.pos, "pair-form subscripts must go through an indirection array")
		}
		if s.Var != f.outerVar {
			return errAt(file, s.pos, "subscript variable must be %q", f.outerVar)
		}
		ind, ok := ir.syms.inds[s.Ind]
		if !ok {
			return errAt(file, s.pos, "undeclared indirection %q", s.Ind)
		}
		if ind.csr {
			return errAt(file, s.pos, "pair-form indirection %q must be flat WIDTH 1", s.Ind)
		}
		if ind.decomp != f.overDec {
			return errAt(file, s.pos, "indirection %q aligned with %q, not the loop decomposition %q",
				s.Ind, ind.decomp, f.overDec)
		}
		switch {
		case l.ia == "" || l.ia == s.Ind:
			l.ia = s.Ind
		case l.ib == "" || l.ib == s.Ind:
			l.ib = s.Ind
			s.j = true
		default:
			return errAt(file, s.pos, "pair form supports at most two indirections; %q is a third", s.Ind)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.inds = []string{l.ia}
	if l.ib == "" {
		l.ib = l.ia
	} else {
		l.inds = append(l.inds, l.ib)
		sort.Strings(l.inds)
	}
	return nil
}

// analyzeReduces checks the REDUCE(SUM) statements of a sum or pair loop:
// one expression walk and one array-noting rule (a single read array, a
// single reduction array of the same width, all aligned with one data
// decomposition). sub is the form's subscript rule: it validates a
// subscript and records the side it resolves to.
func (ir *irProgram) analyzeReduces(l *irLoop, sub func(s *subscript) error) error {
	file, f := ir.file, l.f
	noteArr := func(r *refExpr, pos Pos, reduced bool) error {
		ra, ok := ir.syms.reals[r.array]
		if !ok {
			return errAt(file, pos, "undeclared array %q", r.array)
		}
		if l.dataDec == "" {
			l.dataDec = ra.decomp
		} else if l.dataDec != ra.decomp {
			return errAt(file, pos, "arrays span decompositions %q and %q", l.dataDec, ra.decomp)
		}
		switch {
		case reduced && l.redArr == "":
			l.redArr = r.array
		case reduced && l.redArr != r.array:
			return errAt(file, pos, "body reduces into both %q and %q; a single reduction array is supported", l.redArr, r.array)
		case !reduced && l.readArr == "":
			l.readArr = r.array
			l.width = ra.width
		case !reduced && l.readArr != r.array:
			return errAt(file, pos, "body reads both %q and %q; a single read array is supported", l.readArr, r.array)
		}
		return sub(&r.sub)
	}
	var walk func(e expr) error
	walk = func(e expr) error {
		switch v := e.(type) {
		case *binExpr:
			if err := walk(v.l); err != nil {
				return err
			}
			return walk(v.r)
		case *negExpr:
			return walk(v.e)
		case *numExpr:
			return nil
		case *refExpr:
			return noteArr(v, v.sub.pos, false)
		default:
			return errAt(file, f.pos, "unknown expression node %T", e)
		}
	}
	for i := range f.reduces {
		st := &f.reduces[i]
		if err := noteArr(&st.target, st.pos, true); err != nil {
			return err
		}
		if err := walk(st.value); err != nil {
			return err
		}
		l.flops += exprOps(st.value) + 1 // +1 for the accumulation
	}
	if l.readArr == "" {
		return errAt(file, f.pos, "loop body reads no array")
	}
	if l.readArr == l.redArr {
		return errAt(file, f.pos, "array %q is both read and reduced; use distinct arrays", l.readArr)
	}
	if w := ir.syms.reals[l.redArr].width; w != l.width {
		return errAt(file, f.pos, "read array %q (width %d) and reduction array %q (width %d) differ",
			l.readArr, l.width, l.redArr, w)
	}
	l.flops *= l.width
	return nil
}

// analyzeAppend checks the Figure 9/11 template constraints.
func (ir *irProgram) analyzeAppend(l *irLoop) error {
	file, f := ir.file, l.f
	if _, ok := ir.syms.decomps[f.appendTarget]; !ok {
		return errAt(file, f.pos, "REDUCE(APPEND) into undeclared decomposition %q", f.appendTarget)
	}
	dst, ok := ir.syms.inds[f.appendDest]
	if !ok {
		return errAt(file, f.pos, "undeclared destination indirection %q", f.appendDest)
	}
	if dst.csr {
		return errAt(file, f.pos, "destination indirection %q must be flat with WIDTH 1", f.appendDest)
	}
	if dst.decomp != f.overDec {
		return errAt(file, f.pos, "destination %q aligned with %q, not %q", f.appendDest, dst.decomp, f.overDec)
	}
	src, ok := ir.syms.reals[f.appendSrc]
	if !ok {
		return errAt(file, f.pos, "undeclared record array %q", f.appendSrc)
	}
	if src.decomp != f.overDec {
		return errAt(file, f.pos, "record array %q aligned with %q, not %q", f.appendSrc, src.decomp, f.overDec)
	}
	l.inds = []string{f.appendDest}
	l.dataDec = f.appendTarget
	l.width = src.width
	return nil
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
