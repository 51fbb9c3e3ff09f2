package fortd

import (
	"strconv"
	"strings"
)

// parser consumes the tokens the lexer scans, one token ahead: ahead is the
// next token, and no production looks further. Every production returns
// its node; the first error ends compilation through fail.
type parser struct {
	file  string
	lex   *lexer
	ahead token
	depth int // expression levels open at the current token
}

func (p *parser) peek() token { return p.ahead }
func (p *parser) next() token { t := p.ahead; p.ahead = p.lex.next(); return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) at() srcPos  { return p.peek().pos }
func (p *parser) skipNL() {
	for p.peek().kind == tokNewline {
		p.next()
	}
}

// failAt ends compilation with a diagnostic at pos.
func (p *parser) failAt(pos srcPos, format string, args ...any) {
	fail(p.file, pos, format, args...)
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokKind) token {
	t := p.peek()
	if t.kind != kind {
		p.failAt(t.pos, "expected %v, found %v %q", kind, t.kind, t.text)
	}
	return p.next()
}

// ident consumes an identifier and returns its text.
func (p *parser) ident() string { return p.expect(tokIdent).text }

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) {
	if t := p.expect(tokIdent); !strings.EqualFold(t.text, kw) {
		p.failAt(t.pos, "expected %q, found %q", kw, t.text)
	}
}

// isKeyword reports whether the next token is the given keyword without
// consuming it.
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// more skips blank lines and reports whether a statement other than END
// follows.
func (p *parser) more() bool {
	p.skipNL()
	return !p.isKeyword("END")
}

// number consumes an integer literal that ok accepts, or fails with msg, a
// format of the literal's text.
func (p *parser) number(ok func(int) bool, msg string) int {
	t := p.expect(tokNumber)
	if n, err := strconv.Atoi(t.text); err == nil && ok(n) {
		return n
	}
	p.failAt(t.pos, msg, t.text)
	return 0
}

func positive(n int) bool { return n > 0 }

// endOfStmt consumes the end of line closing a statement (or accepts the end
// of input).
func (p *parser) endOfStmt() {
	switch t := p.peek(); t.kind {
	case tokNewline:
		p.next()
	case tokEOF:
	default:
		p.failAt(t.pos, "unexpected %v %q at end of statement", t.kind, t.text)
	}
}

// parse builds the program AST.
func parse(file, src string) *program {
	p := &parser{file: file, lex: &lexer{file: file, rest: src, more: true}}
	p.next()
	prog := &program{}
	for p.skipNL(); !p.atEOF(); p.skipNL() {
		t := p.peek()
		if t.kind != tokIdent {
			p.failAt(t.pos, "expected a statement keyword, found %v %q", t.kind, t.text)
		}
		switch strings.ToUpper(t.text) {
		case "DECOMPOSITION":
			prog.decls = append(prog.decls, p.parseDecomposition())
		case "DISTRIBUTE":
			prog.decls = append(prog.decls, p.parseDistribute())
		case "REAL":
			prog.decls = append(prog.decls, p.parseReal()...)
		case "INDIRECTION":
			prog.decls = append(prog.decls, p.parseIndirection())
		case "FORALL", "ADAPT", "DO":
			prog.stmts = append(prog.stmts, p.parseStmt(0))
		default:
			p.failAt(t.pos, "unknown statement %q", t.text)
		}
	}
	return prog
}

// maxDoDepth and maxExprDepth bound DO and expression nesting (they keep
// the recursive-descent parser robust against adversarial inputs).
const (
	maxDoDepth   = 16
	maxExprDepth = 256
)

// parseStmt parses one executable statement: FORALL, ADAPT or DO. Each
// statement parser is entered at its keyword, which the caller has matched.
func (p *parser) parseStmt(depth int) stmt {
	t := p.peek()
	switch strings.ToUpper(t.text) {
	case "FORALL":
		f := p.parseForall()
		return stmt{kind: stmtForall, pos: f.pos, forall: f}
	case "ADAPT":
		return p.parseAdapt()
	case "DO":
		return p.parseDo(depth)
	}
	p.failAt(t.pos, "expected FORALL, ADAPT or DO, found %q", t.text)
	return stmt{}
}

// ADAPT ind
func (p *parser) parseAdapt() stmt {
	s := stmt{kind: stmtAdapt, pos: p.next().pos, adapt: p.ident()}
	p.endOfStmt()
	return s
}

// DO v = 1, N ... END DO
func (p *parser) parseDo(depth int) stmt {
	s := stmt{kind: stmtDo, pos: p.at()}
	if depth >= maxDoDepth {
		p.failAt(s.pos, "DO loops nested deeper than %d", maxDoDepth)
	}
	p.next()
	s.doVar = p.ident()
	p.expect(tokEq)
	if lo := p.expect(tokNumber); lo.text != "1" {
		p.failAt(lo.pos, "DO must count from 1, found %q", lo.text)
	}
	p.expect(tokComma)
	s.doN = p.number(positive, "bad DO iteration count %q")
	p.endOfStmt()
	for p.more() {
		if p.atEOF() {
			p.failAt(p.at(), "missing END DO")
		}
		s.body = append(s.body, p.parseStmt(depth+1))
	}
	p.next()
	p.keyword("DO")
	if len(s.body) == 0 {
		p.failAt(s.pos, "empty DO body")
	}
	p.endOfStmt()
	return s
}

// DECOMPOSITION name(n)
func (p *parser) parseDecomposition() decl {
	d := decl{kind: declDecomposition, pos: p.next().pos, name: p.ident()}
	p.expect(tokLParen)
	d.n = p.number(positive, "bad decomposition size %q")
	p.expect(tokRParen)
	p.endOfStmt()
	return d
}

// DISTRIBUTE name(BLOCK) | DISTRIBUTE name(CYCLIC) | DISTRIBUTE name(MAP)
func (p *parser) parseDistribute() decl {
	d := decl{kind: declDistribute, pos: p.next().pos, name: p.ident()}
	p.expect(tokLParen)
	switch kind := p.expect(tokIdent); strings.ToUpper(kind.text) {
	case "BLOCK":
		d.dist = distBlock
	case "CYCLIC":
		d.dist = distCyclic
	case "MAP":
		d.dist = distMap
	default:
		p.failAt(kind.pos, "unsupported distribution %q (BLOCK, CYCLIC or MAP)", kind.text)
	}
	p.expect(tokRParen)
	p.endOfStmt()
	return d
}

// REAL a(dec[,width]) {, b(dec[,width])}
func (p *parser) parseReal() []decl {
	p.next()
	var out []decl
	for {
		d := decl{kind: declReal, pos: p.at(), width: 1, name: p.ident()}
		p.expect(tokLParen)
		d.decomp = p.ident()
		if p.peek().kind == tokComma {
			p.next()
			d.width = p.number(positive, "bad width %q")
		}
		p.expect(tokRParen)
		out = append(out, d)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	p.endOfStmt()
	return out
}

// INDIRECTION name(dec) CSR | INDIRECTION name(dec) WIDTH 1
func (p *parser) parseIndirection() decl {
	d := decl{kind: declIndirection, pos: p.next().pos, width: 1, name: p.ident()}
	p.expect(tokLParen)
	d.decomp = p.ident()
	p.expect(tokRParen)
	switch form := p.expect(tokIdent); strings.ToUpper(form.text) {
	case "CSR":
		d.csr = true
	case "WIDTH":
		// Every FORALL form reads one flat entry per iteration (d.width
		// stays 1); a wider row would compile and then never fit the data.
		p.number(func(n int) bool { return n == 1 }, "flat INDIRECTION must have WIDTH 1, found %q")
	default:
		p.failAt(form.pos, "indirection form must be CSR or WIDTH, found %q", form.text)
	}
	p.endOfStmt()
	return d
}

// FORALL var IN iter ...
func (p *parser) parseForall() *forall {
	f := &forall{pos: p.next().pos, outerVar: p.ident()}
	p.keyword("IN")
	f.overDec = p.ident()
	p.endOfStmt()
	p.skipNL()

	if p.isKeyword("FORALL") {
		// Sum-loop form: inner FORALL j IN ind(i).
		p.next()
		f.kind = loopSum
		f.innerVar = p.ident()
		p.keyword("IN")
		f.innerInd = p.ident()
		p.expect(tokLParen)
		if ov := p.expect(tokIdent); ov.text != f.outerVar {
			p.failAt(ov.pos, "inner loop must range over %s(%s)", f.innerInd, f.outerVar)
		}
		p.expect(tokRParen)
		p.endOfStmt()
		f.reduces = p.parseReduces()
		p.parseEndForall()
		p.skipNL()
		p.parseEndForall()
		if len(f.reduces) == 0 {
			p.failAt(f.pos, "empty FORALL body")
		}
		p.endOfStmt()
		return f
	}

	// Single-level body: REDUCE(APPEND, ...) (Figure 9/11) or a list of
	// REDUCE(SUM, ...) statements over flat indirections (Figure 2's
	// bonded template).
	p.keyword("REDUCE")
	p.expect(tokLParen)
	switch op := p.expect(tokIdent); {
	case strings.EqualFold(op.text, "SUM"):
		f.kind = loopPair
		f.reduces = append([]reduceStmt{p.parseReduceSum()}, p.parseReduces()...)
	case strings.EqualFold(op.text, "APPEND"):
		f.kind = loopAppend
		p.expect(tokComma)
		f.appendDest = p.parseRef()
		p.expect(tokComma)
		f.appendSrc = p.parseRef()
		p.expect(tokRParen)
		p.endOfStmt()
		p.skipNL()
	default:
		p.failAt(op.pos, "top-level REDUCE must be SUM or APPEND, found %q", op.text)
	}
	p.parseEndForall()
	p.endOfStmt()
	return f
}

// END FORALL
func (p *parser) parseEndForall() {
	p.keyword("END")
	p.keyword("FORALL")
}

// parseReduces parses REDUCE(SUM, target, expr) statements up to END.
func (p *parser) parseReduces() []reduceStmt {
	var out []reduceStmt
	for p.more() {
		p.keyword("REDUCE")
		p.expect(tokLParen)
		p.keyword("SUM")
		out = append(out, p.parseReduceSum())
	}
	return out
}

// parseReduceSum parses the rest of a REDUCE(SUM, target, expr) statement,
// entered past its SUM.
func (p *parser) parseReduceSum() reduceStmt {
	st := reduceStmt{pos: p.at()}
	p.expect(tokComma)
	st.target = p.parseRef()
	p.expect(tokComma)
	st.value = p.parseExpr()
	p.expect(tokRParen)
	p.endOfStmt()
	return st
}

// parseRef parses array(subscript) where subscript is a loop variable or
// ind(var).
func (p *parser) parseRef() refExpr {
	r := refExpr{array: p.ident()}
	p.expect(tokLParen)
	first := p.expect(tokIdent)
	r.sub.pos = first.pos
	if p.peek().kind == tokLParen {
		// ind(var)
		p.next()
		r.sub.Ind = first.text
		r.sub.Var = p.ident()
		p.expect(tokRParen)
	} else {
		r.sub.Var = first.text
	}
	p.expect(tokRParen)
	return r
}

// Expression grammar: expr := term {(+|-) term}; term := factor {(*|/) factor};
// factor := number | ref | (expr) | -factor.
//
// A parenthesis, a unary minus and each operator of a chain open one level
// (nest), and no more than maxExprDepth may be open at once. So the parser
// recurses at most that deep, and the tree it builds, which the checker's
// walk, exprOps and the evaluator recurse over, is less than maxExprDepth²
// levels deep.
func (p *parser) parseExpr() expr { return p.binary(p.parseTerm, tokPlus, tokMinus) }
func (p *parser) parseTerm() expr { return p.binary(p.parseFactor, tokStar, tokSlash) }

// nest opens one expression level at t.
func (p *parser) nest(t token) {
	if p.depth++; p.depth > maxExprDepth {
		p.failAt(t.pos, "expression nested deeper than %d", maxExprDepth)
	}
}

// binary parses operand {op operand} for the two operators of one
// precedence level, associating to the left.
func (p *parser) binary(operand func() expr, op1, op2 tokKind) expr {
	depth := p.depth
	l := operand()
	for t := p.peek(); t.kind == op1 || t.kind == op2; t = p.peek() {
		p.next()
		p.nest(t)
		l = &binExpr{op: t.text[0], l: l, r: operand()}
	}
	p.depth = depth
	return l
}

func (p *parser) parseFactor() expr {
	switch t := p.peek(); t.kind {
	case tokNumber:
		p.next()
		if v, err := strconv.ParseFloat(t.text, 64); err == nil {
			return &numExpr{v: v}
		}
		p.failAt(t.pos, "bad number %q", t.text)
		return nil
	case tokMinus:
		p.next()
		p.nest(t)
		e := &negExpr{e: p.parseFactor()}
		p.depth--
		return e
	case tokLParen:
		p.next()
		p.nest(t)
		e := p.parseExpr()
		p.expect(tokRParen)
		p.depth--
		return e
	case tokIdent:
		r := p.parseRef()
		return &r
	default:
		p.failAt(t.pos, "expected an expression, found %v %q", t.kind, t.text)
		return nil
	}
}
