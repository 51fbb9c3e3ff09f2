package fortd

// The abstract syntax tree of the Fortran D subset.

// Decl kinds.
type declKind int

const (
	declDecomposition declKind = iota
	declDistribute
	declReal
	declIndirection
)

// DistKind is the distribution named in a DISTRIBUTE statement.
type DistKind int

// Distribution kinds.
const (
	DistBlock DistKind = iota
	// DistCyclic is the round-robin standard distribution of §5.1.
	DistCyclic
	// DistMap marks the decomposition as irregularly distributable: the
	// host supplies the map array at run time (the paper's
	// `DISTRIBUTE irreg(map)` with map set by an extrinsic partitioner).
	DistMap
)

// decl is one declaration statement.
type decl struct {
	kind declKind
	pos  Pos
	// DECOMPOSITION name(n)
	name string
	n    int
	// DISTRIBUTE name(BLOCK|MAP)
	dist DistKind
	// REAL name(decomp[,width]) — one decl per declared array.
	width  int
	decomp string
	// INDIRECTION name(decomp) CSR | WIDTH k
	csr bool
}

// subscript is an array subscript inside a FORALL body: either the loop
// variable itself (Ind == "") or ind(var) for an indirection array ind.
type subscript struct {
	Ind string // indirection array name, "" for direct
	Var string // loop variable name
	pos Pos
	j   bool // set by analysis: the reference resolves to the j side of the pair
}

// expr is an arithmetic expression over array references and literals.
type expr interface{ exprNode() }

type binExpr struct {
	op   byte // '+', '-', '*', '/'
	l, r expr
}

type negExpr struct{ e expr }

type numExpr struct{ v float64 }

type refExpr struct {
	array string
	sub   subscript
}

func (*binExpr) exprNode() {}
func (*negExpr) exprNode() {}
func (*numExpr) exprNode() {}
func (*refExpr) exprNode() {}

// reduceStmt is one REDUCE(SUM, target, expr) statement.
type reduceStmt struct {
	pos    Pos
	target refExpr
	value  expr
}

// forall is a FORALL nest. Two shapes are accepted:
//
//   - sum loop: FORALL i IN dec / FORALL j IN ind(i) / REDUCE(SUM,...)* —
//     the Figure 10 template;
//   - append loop: FORALL i IN dec / REDUCE(APPEND, target(ind(i)), src(i))
//     — the Figure 9/11 template.
type forall struct {
	pos      Pos
	outerVar string
	overDec  string // decomposition iterated by the outer loop

	// Sum-loop form (nested CSR FORALL) and pair form (flat indirections)
	// share the reduce-statement list.
	innerVar string
	innerInd string // CSR indirection array
	isPair   bool   // flat-indirection pair form (Figure 2 bonded template)
	reduces  []reduceStmt

	// Append form.
	isAppend     bool
	appendTarget string // destination decomposition name
	appendDest   string // flat indirection array with destinations
	appendSrc    string // real array providing the records
}

// stmtKind discriminates executable statements.
type stmtKind int

const (
	stmtForall stmtKind = iota
	stmtAdapt
	stmtDo
)

// stmt is one executable statement: a FORALL nest, an ADAPT of an
// indirection array (the host's adapter callback mutates it, modeling the
// list regeneration of the paper's adaptive applications), or a DO time
// loop whose body is a statement sequence. analyze checks it into the
// irScope tree (ir.go).
type stmt struct {
	kind   stmtKind
	pos    Pos
	forall *forall // stmtForall
	adapt  string  // stmtAdapt: indirection array name
	doVar  string  // stmtDo: loop variable (a time counter)
	doN    int     // stmtDo: iteration count (DO v = 1, N)
	body   []stmt  // stmtDo
}

// program is the parsed compilation unit.
type program struct {
	decls []decl
	stmts []stmt
}
