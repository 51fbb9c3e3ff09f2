package fortd

import (
	"strconv"
	"strings"
)

// parser consumes the token stream produced by lex.
type parser struct {
	file string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) at() Pos     { return p.peek().pos }
func (p *parser) skipNL() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.file, p.at(), format, args...)
}

// errAt reports an error at an explicit position (for tokens already
// consumed).
func (p *parser) errAt(pos Pos, format string, args ...any) error {
	return errAt(p.file, pos, format, args...)
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, p.errf("expected %v, found %v %q", kind, t.kind, t.text)
	}
	return p.next(), nil
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) error {
	t, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if !strings.EqualFold(t.text, kw) {
		return p.errAt(t.pos, "expected %q, found %q", kw, t.text)
	}
	return nil
}

// isKeyword reports whether the next token is the given keyword without
// consuming it.
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) endOfStmt() error {
	t := p.peek()
	if t.kind == tokNewline {
		p.next()
		return nil
	}
	if t.kind == tokEOF {
		return nil
	}
	return p.errf("unexpected %v %q at end of statement", t.kind, t.text)
}

// parse builds the program AST.
func parse(file, src string) (*program, error) {
	toks, err := lex(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, toks: toks}
	prog := &program{}
	for {
		p.skipNL()
		if p.atEOF() {
			return prog, nil
		}
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errf("expected a statement keyword, found %v %q", t.kind, t.text)
		}
		switch strings.ToUpper(t.text) {
		case "DECOMPOSITION":
			d, err := p.parseDecomposition()
			if err != nil {
				return nil, err
			}
			prog.decls = append(prog.decls, d)
		case "DISTRIBUTE":
			d, err := p.parseDistribute()
			if err != nil {
				return nil, err
			}
			prog.decls = append(prog.decls, d)
		case "REAL":
			ds, err := p.parseReal()
			if err != nil {
				return nil, err
			}
			prog.decls = append(prog.decls, ds...)
		case "INDIRECTION":
			d, err := p.parseIndirection()
			if err != nil {
				return nil, err
			}
			prog.decls = append(prog.decls, d)
		case "FORALL", "ADAPT", "DO":
			s, err := p.parseStmt(0)
			if err != nil {
				return nil, err
			}
			prog.stmts = append(prog.stmts, s)
		default:
			return nil, p.errf("unknown statement %q", t.text)
		}
	}
}

// maxDoDepth bounds DO nesting (keeps the recursive-descent parser robust
// against adversarial inputs).
const maxDoDepth = 16

// parseStmt parses one executable statement: FORALL, ADAPT or DO.
func (p *parser) parseStmt(depth int) (stmt, error) {
	t := p.peek()
	switch strings.ToUpper(t.text) {
	case "FORALL":
		f, err := p.parseForall()
		if err != nil {
			return stmt{}, err
		}
		return stmt{kind: stmtForall, pos: f.pos, forall: f}, nil
	case "ADAPT":
		return p.parseAdapt()
	case "DO":
		return p.parseDo(depth)
	default:
		return stmt{}, p.errf("expected FORALL, ADAPT or DO, found %q", t.text)
	}
}

// ADAPT ind
func (p *parser) parseAdapt() (stmt, error) {
	s := stmt{kind: stmtAdapt, pos: p.at()}
	if err := p.keyword("ADAPT"); err != nil {
		return s, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return s, err
	}
	s.adapt = name.text
	return s, p.endOfStmt()
}

// DO v = 1, N ... END DO
func (p *parser) parseDo(depth int) (stmt, error) {
	s := stmt{kind: stmtDo, pos: p.at()}
	if depth >= maxDoDepth {
		return s, p.errf("DO loops nested deeper than %d", maxDoDepth)
	}
	if err := p.keyword("DO"); err != nil {
		return s, err
	}
	v, err := p.expect(tokIdent)
	if err != nil {
		return s, err
	}
	s.doVar = v.text
	if _, err := p.expect(tokEq); err != nil {
		return s, err
	}
	lo, err := p.expect(tokNumber)
	if err != nil {
		return s, err
	}
	if lo.text != "1" {
		return s, p.errAt(lo.pos, "DO must count from 1, found %q", lo.text)
	}
	if _, err := p.expect(tokComma); err != nil {
		return s, err
	}
	hi, err := p.expect(tokNumber)
	if err != nil {
		return s, err
	}
	n, convErr := strconv.Atoi(hi.text)
	if convErr != nil || n < 1 {
		return s, p.errAt(hi.pos, "bad DO iteration count %q", hi.text)
	}
	s.doN = n
	if err := p.endOfStmt(); err != nil {
		return s, err
	}
	for {
		p.skipNL()
		if p.atEOF() {
			return s, p.errf("missing END DO")
		}
		if p.isKeyword("END") {
			break
		}
		body, err := p.parseStmt(depth + 1)
		if err != nil {
			return s, err
		}
		s.body = append(s.body, body)
	}
	if err := p.keyword("END"); err != nil {
		return s, err
	}
	if err := p.keyword("DO"); err != nil {
		return s, err
	}
	if len(s.body) == 0 {
		return s, p.errAt(s.pos, "empty DO body")
	}
	return s, p.endOfStmtOrEOF()
}

// DECOMPOSITION name(n)
func (p *parser) parseDecomposition() (decl, error) {
	d := decl{kind: declDecomposition, pos: p.at()}
	if err := p.keyword("DECOMPOSITION"); err != nil {
		return d, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	d.name = name.text
	if _, err := p.expect(tokLParen); err != nil {
		return d, err
	}
	num, err := p.expect(tokNumber)
	if err != nil {
		return d, err
	}
	n, err := strconv.Atoi(num.text)
	if err != nil || n <= 0 {
		return d, p.errAt(num.pos, "bad decomposition size %q", num.text)
	}
	d.n = n
	if _, err := p.expect(tokRParen); err != nil {
		return d, err
	}
	return d, p.endOfStmt()
}

// DISTRIBUTE name(BLOCK) | DISTRIBUTE name(MAP)
func (p *parser) parseDistribute() (decl, error) {
	d := decl{kind: declDistribute, pos: p.at()}
	if err := p.keyword("DISTRIBUTE"); err != nil {
		return d, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	d.name = name.text
	if _, err := p.expect(tokLParen); err != nil {
		return d, err
	}
	kind, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	switch strings.ToUpper(kind.text) {
	case "BLOCK":
		d.dist = DistBlock
	case "CYCLIC":
		d.dist = DistCyclic
	case "MAP":
		d.dist = DistMap
	default:
		return d, p.errAt(kind.pos, "unsupported distribution %q (BLOCK, CYCLIC or MAP)", kind.text)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return d, err
	}
	return d, p.endOfStmt()
}

// REAL a(dec[,width]) {, b(dec[,width])}
func (p *parser) parseReal() ([]decl, error) {
	if err := p.keyword("REAL"); err != nil {
		return nil, err
	}
	var out []decl
	for {
		d := decl{kind: declReal, pos: p.at(), width: 1}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		d.name = name.text
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		dec, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		d.decomp = dec.text
		if p.peek().kind == tokComma {
			p.next()
			w, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			width, err := strconv.Atoi(w.text)
			if err != nil || width <= 0 {
				return nil, p.errAt(w.pos, "bad width %q", w.text)
			}
			d.width = width
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		out = append(out, d)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	return out, p.endOfStmt()
}

// INDIRECTION name(dec) CSR | INDIRECTION name(dec) WIDTH 1
func (p *parser) parseIndirection() (decl, error) {
	d := decl{kind: declIndirection, pos: p.at(), width: 1}
	if err := p.keyword("INDIRECTION"); err != nil {
		return d, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	d.name = name.text
	if _, err := p.expect(tokLParen); err != nil {
		return d, err
	}
	dec, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	d.decomp = dec.text
	if _, err := p.expect(tokRParen); err != nil {
		return d, err
	}
	form, err := p.expect(tokIdent)
	if err != nil {
		return d, err
	}
	switch strings.ToUpper(form.text) {
	case "CSR":
		d.csr = true
	case "WIDTH":
		w, err := p.expect(tokNumber)
		if err != nil {
			return d, err
		}
		// Every FORALL form reads one flat entry per iteration (d.width
		// stays 1); a wider row would compile and then never fit the data.
		if width, err := strconv.Atoi(w.text); err != nil || width != 1 {
			return d, p.errAt(w.pos, "flat INDIRECTION must have WIDTH 1, found %q", w.text)
		}
	default:
		return d, p.errAt(form.pos, "indirection form must be CSR or WIDTH, found %q", form.text)
	}
	return d, p.endOfStmt()
}

// FORALL var IN iter ...
func (p *parser) parseForall() (*forall, error) {
	f := &forall{pos: p.at()}
	if err := p.keyword("FORALL"); err != nil {
		return f, err
	}
	v, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	f.outerVar = v.text
	if err := p.keyword("IN"); err != nil {
		return f, err
	}
	dec, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	f.overDec = dec.text
	if err := p.endOfStmt(); err != nil {
		return f, err
	}
	p.skipNL()

	if p.isKeyword("FORALL") {
		// Sum-loop form: inner FORALL j IN ind(i).
		p.next()
		iv, err := p.expect(tokIdent)
		if err != nil {
			return f, err
		}
		f.innerVar = iv.text
		if err := p.keyword("IN"); err != nil {
			return f, err
		}
		ind, err := p.expect(tokIdent)
		if err != nil {
			return f, err
		}
		f.innerInd = ind.text
		if _, err := p.expect(tokLParen); err != nil {
			return f, err
		}
		ov, err := p.expect(tokIdent)
		if err != nil {
			return f, err
		}
		if ov.text != f.outerVar {
			return f, p.errAt(ov.pos, "inner loop must range over %s(%s)", f.innerInd, f.outerVar)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return f, err
		}
		if err := p.endOfStmt(); err != nil {
			return f, err
		}
		for {
			p.skipNL()
			if p.isKeyword("END") {
				break
			}
			st, err := p.parseReduceSum(f)
			if err != nil {
				return f, err
			}
			f.reduces = append(f.reduces, st)
		}
		if err := p.parseEndForall(); err != nil {
			return f, err
		}
		p.skipNL()
		if err := p.parseEndForall(); err != nil {
			return f, err
		}
		if len(f.reduces) == 0 {
			return f, p.errAt(f.pos, "empty FORALL body")
		}
		return f, p.endOfStmtOrEOF()
	}

	// Single-level body: REDUCE(APPEND, ...) (Figure 9/11) or a list of
	// REDUCE(SUM, ...) statements over flat indirections (Figure 2's
	// bonded template).
	if err := p.keyword("REDUCE"); err != nil {
		return f, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return f, err
	}
	op, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	if strings.EqualFold(op.text, "SUM") {
		f.isPair = true
		st, err := p.parseReduceAfterOp(f)
		if err != nil {
			return f, err
		}
		f.reduces = append(f.reduces, st)
		for {
			p.skipNL()
			if p.isKeyword("END") {
				break
			}
			st, err := p.parseReduceSum(f)
			if err != nil {
				return f, err
			}
			f.reduces = append(f.reduces, st)
		}
		if err := p.parseEndForall(); err != nil {
			return f, err
		}
		return f, p.endOfStmtOrEOF()
	}
	if !strings.EqualFold(op.text, "APPEND") {
		return f, p.errAt(op.pos, "top-level REDUCE must be SUM or APPEND, found %q", op.text)
	}
	f.isAppend = true
	if _, err := p.expect(tokComma); err != nil {
		return f, err
	}
	tgt, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	f.appendTarget = tgt.text
	if _, err := p.expect(tokLParen); err != nil {
		return f, err
	}
	dst, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	f.appendDest = dst.text
	if _, err := p.expect(tokLParen); err != nil {
		return f, err
	}
	if _, err := p.expect(tokIdent); err != nil {
		return f, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return f, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return f, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return f, err
	}
	src, err := p.expect(tokIdent)
	if err != nil {
		return f, err
	}
	f.appendSrc = src.text
	if _, err := p.expect(tokLParen); err != nil {
		return f, err
	}
	if _, err := p.expect(tokIdent); err != nil {
		return f, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return f, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return f, err
	}
	if err := p.endOfStmt(); err != nil {
		return f, err
	}
	p.skipNL()
	if err := p.parseEndForall(); err != nil {
		return f, err
	}
	return f, p.endOfStmtOrEOF()
}

func (p *parser) endOfStmtOrEOF() error {
	if p.atEOF() {
		return nil
	}
	return p.endOfStmt()
}

// END FORALL
func (p *parser) parseEndForall() error {
	if err := p.keyword("END"); err != nil {
		return err
	}
	return p.keyword("FORALL")
}

// REDUCE(SUM, target, expr)
func (p *parser) parseReduceSum(f *forall) (reduceStmt, error) {
	if err := p.keyword("REDUCE"); err != nil {
		return reduceStmt{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return reduceStmt{}, err
	}
	if err := p.keyword("SUM"); err != nil {
		return reduceStmt{}, err
	}
	return p.parseReduceAfterOp(f)
}

// parseReduceAfterOp parses ", target, expr)" after REDUCE(SUM has been
// consumed.
func (p *parser) parseReduceAfterOp(f *forall) (reduceStmt, error) {
	st := reduceStmt{pos: p.at()}
	if _, err := p.expect(tokComma); err != nil {
		return st, err
	}
	tgt, err := p.parseRef(f)
	if err != nil {
		return st, err
	}
	st.target = tgt
	if _, err := p.expect(tokComma); err != nil {
		return st, err
	}
	e, err := p.parseExpr(f)
	if err != nil {
		return st, err
	}
	st.value = e
	if _, err := p.expect(tokRParen); err != nil {
		return st, err
	}
	return st, p.endOfStmt()
}

// parseRef parses array(subscript) where subscript is the outer loop
// variable or ind(innerVar).
func (p *parser) parseRef(f *forall) (refExpr, error) {
	var r refExpr
	name, err := p.expect(tokIdent)
	if err != nil {
		return r, err
	}
	r.array = name.text
	if _, err := p.expect(tokLParen); err != nil {
		return r, err
	}
	first, err := p.expect(tokIdent)
	if err != nil {
		return r, err
	}
	r.sub.pos = first.pos
	if p.peek().kind == tokLParen {
		// ind(var)
		p.next()
		v, err := p.expect(tokIdent)
		if err != nil {
			return r, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return r, err
		}
		r.sub.Ind = first.text
		r.sub.Var = v.text
	} else {
		r.sub.Var = first.text
	}
	if _, err := p.expect(tokRParen); err != nil {
		return r, err
	}
	return r, nil
}

// Expression grammar: expr := term {(+|-) term}; term := factor {(*|/) factor};
// factor := number | ref | (expr) | -factor.
func (p *parser) parseExpr(f *forall) (expr, error) {
	l, err := p.parseTerm(f)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokPlus:
			p.next()
			r, err := p.parseTerm(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '+', l: l, r: r}
		case tokMinus:
			p.next()
			r, err := p.parseTerm(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '-', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm(f *forall) (expr, error) {
	l, err := p.parseFactor(f)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokStar:
			p.next()
			r, err := p.parseFactor(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '*', l: l, r: r}
		case tokSlash:
			p.next()
			r, err := p.parseFactor(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{op: '/', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseFactor(f *forall) (expr, error) {
	switch t := p.peek(); t.kind {
	case tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errAt(t.pos, "bad number %q", t.text)
		}
		return &numExpr{v: v}, nil
	case tokMinus:
		p.next()
		e, err := p.parseFactor(f)
		if err != nil {
			return nil, err
		}
		return &negExpr{e: e}, nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr(f)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		r, err := p.parseRef(f)
		if err != nil {
			return nil, err
		}
		return &r, nil
	default:
		return nil, p.errf("expected an expression, found %v %q", t.kind, t.text)
	}
}
