// Package fortd is a compiler front-end for a small Fortran D dialect —
// the textual counterpart of the language support described in §5 of the
// paper. It accepts programs built from the constructs the paper's figures
// use:
//
//	DECOMPOSITION reg(14026)
//	DISTRIBUTE reg(BLOCK)            ! or DISTRIBUTE reg(MAP)
//	REAL x(reg,3), dx(reg,3)
//	INDIRECTION jnb(reg) CSR         ! or INDIRECTION dest(parts) WIDTH 1
//
//	FORALL i IN reg
//	  FORALL j IN jnb(i)
//	    REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))
//	    REDUCE(SUM, dx(i), x(i) - x(jnb(j)))
//	  END FORALL
//	END FORALL
//
// and the REDUCE(APPEND, ...) intrinsic of §5.2.1:
//
//	FORALL i IN parts
//	  REDUCE(APPEND, cells(dest(i)), parts(i))
//	END FORALL
//
// Time loops and adaptivity are expressed with DO and ADAPT:
//
//	DO n = 1, 100
//	  ADAPT jnb          ! the host's adapter callback mutates jnb
//	  FORALL ...
//	END DO
//
// Compile parses and semantically checks a program; Instantiate lowers it
// onto the loopir runtime for one SPMD rank, producing the same
// inspector/executor code (with modification records and schedule reuse)
// the Syracuse Fortran 90D prototype generated. InstantiateOptimized
// additionally applies the program-level schedule-reuse, inspector-hoisting
// and message-fusion transformations (see ir.go), and Vet reports the same
// analyses as positioned diagnostics.
package fortd

import (
	"strings"
	"unicode/utf8"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokEq
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "end of line"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokEq:
		return "'='"
	default:
		return "tokKind(?)"
	}
}

// token is one lexical token with its source position for diagnostics.
type token struct {
	kind tokKind
	text string
	pos  srcPos
}

// lexer is a pull lexer over src: each call of next scans one more token,
// so the front end holds only the token it is looking at, whatever the
// length of the input. Comments start with '!' anywhere, or with 'C'/'c'/'*'
// in the first column (Fortran style); both run to end of line. Newlines are
// significant (statements are line-oriented): a line that yields a token
// ends with a tokNewline. src is read as UTF-8, and columns are 1-based
// rune counts within the line. Identifiers and numbers are ASCII; any other
// rune outside a comment is an unexpected character at its own column.
type lexer struct {
	file string
	rest string // the input after the current line
	more bool   // rest holds another line (possibly empty)
	line int    // the current line's number
	raw  string // the current line, its comment cut off
	i    int    // byte offset of the next character of raw
	col  int    // rune column of raw[i]
	// emitted reports that the current line has yielded a token and so
	// still owes its tokNewline.
	emitted bool
}

// next scans and returns the next token. At the end of the input it
// returns tokEOF, positioned at column 1 of the last line, on every call.
func (l *lexer) next() token {
	for {
		for l.i < len(l.raw) && (l.raw[l.i] == ' ' || l.raw[l.i] == '\t' || l.raw[l.i] == '\r') {
			l.i++
			l.col++
		}
		if l.i < len(l.raw) {
			return l.scan()
		}
		if l.emitted {
			l.emitted = false
			return token{tokNewline, "", srcPos{line: l.line, col: l.col}}
		}
		if !l.nextLine() {
			return token{tokEOF, "", srcPos{line: l.line, col: 1}}
		}
	}
}

// nextLine moves to the next line of the input, with its comment cut off,
// and reports whether there was one.
func (l *lexer) nextLine() bool {
	if !l.more {
		return false
	}
	raw := l.rest
	if k := strings.IndexByte(raw, '\n'); k >= 0 {
		raw, l.rest = raw[:k], raw[k+1:]
	} else {
		l.rest, l.more = "", false
	}
	l.line++
	l.i, l.col = 0, 1
	// Fortran comment card: C or * in column one, followed by a space, a
	// tab, '$' or nothing (so identifiers starting with c at column 1 in free
	// form still work).
	if len(raw) > 0 && (raw[0] == 'C' || raw[0] == 'c' || raw[0] == '*') &&
		(len(raw) == 1 || raw[1] == ' ' || raw[1] == '\t' || raw[1] == '$') {
		raw = ""
	}
	if k := strings.IndexByte(raw, '!'); k >= 0 {
		raw = raw[:k]
	}
	l.raw = raw
	return true
}

// scan returns the token that starts at raw[i], which is not blank.
func (l *lexer) scan() token {
	raw, i := l.raw, l.i
	c := raw[i]
	pos := srcPos{line: l.line, col: l.col}
	j := i + 1
	var kind tokKind
	switch {
	case isLetter(c) || c == '_':
		for j < len(raw) && isIdentChar(raw[j]) {
			j++
		}
		kind = tokIdent
	case isDigit(c) || c == '.':
		for j < len(raw) && (isDigit(raw[j]) || raw[j] == '.') {
			j++
		}
		kind = tokNumber
	default:
		r, size := utf8.DecodeRuneInString(raw[i:])
		k, ok := punct(r)
		if !ok {
			fail(l.file, pos, "unexpected character %q", r)
		}
		kind, j = k, i+size
	}
	l.col += utf8.RuneCountInString(raw[i:j])
	l.i = j
	l.emitted = true
	return token{kind, raw[i:j], pos}
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentChar(c byte) bool {
	return isLetter(c) || isDigit(c) || c == '_' || c == '$'
}

func punct(c rune) (tokKind, bool) {
	switch c {
	case '(':
		return tokLParen, true
	case ')':
		return tokRParen, true
	case ',':
		return tokComma, true
	case '+':
		return tokPlus, true
	case '-':
		return tokMinus, true
	case '*':
		return tokStar, true
	case '/':
		return tokSlash, true
	case '=':
		return tokEq, true
	default:
		return 0, false
	}
}
