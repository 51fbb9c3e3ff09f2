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

// distKind is the distribution named in a DISTRIBUTE statement.
type distKind int

// Distribution kinds.
const (
	distBlock distKind = iota
	// distCyclic is the round-robin standard distribution of §5.1.
	distCyclic
	// distMap marks the decomposition as irregularly distributable: the
	// host supplies the map array at run time (the paper's
	// `DISTRIBUTE irreg(map)` with map set by an extrinsic partitioner).
	distMap
)

// decl is one declaration statement.
type decl struct {
	kind declKind
	pos  srcPos
	// DECOMPOSITION name(n)
	name string
	n    int
	// DISTRIBUTE name(BLOCK|MAP)
	dist distKind
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
	pos srcPos
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
	pos    srcPos
	target refExpr
	value  expr
}

// loopKind is a FORALL nest's form, recorded by the parser.
type loopKind int

const (
	loopSum    loopKind = iota // Figure 10: nested CSR FORALL, REDUCE(SUM)
	loopAppend                 // Figures 9/11: REDUCE(APPEND)
	loopPair                   // Figure 2 bonded: two flat indirections, REDUCE(SUM)
)

func (k loopKind) String() string { return [...]string{"sum", "append", "pair"}[k] }

// forall is a FORALL nest in one of three forms:
//
//   - sum loop: FORALL i IN dec / FORALL j IN ind(i) / REDUCE(SUM,...)* —
//     the Figure 10 template;
//   - pair loop: FORALL k IN dec / REDUCE(SUM,...)* over flat indirections
//     ind(k) — Figure 2's bonded template;
//   - append loop: FORALL i IN dec / REDUCE(APPEND, target(ind(i)), src(i))
//     — the Figure 9/11 template.
type forall struct {
	pos      srcPos
	kind     loopKind
	outerVar string
	overDec  string // decomposition iterated by the outer loop

	// Sum and pair forms share the reduce-statement list.
	innerVar string // sum form: inner loop variable
	innerInd string // sum form: CSR indirection array
	reduces  []reduceStmt

	// Append form: REDUCE(APPEND, appendDest, appendSrc), the destination
	// target(ind(i)) naming the decomposition and the flat indirection that
	// routes each record, the source records(i) the real array providing
	// them.
	appendDest, appendSrc refExpr
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
	pos    srcPos
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
