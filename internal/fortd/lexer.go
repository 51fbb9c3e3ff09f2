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
	pos  Pos
}

// lex splits src into tokens. Comments start with '!' anywhere, or with
// 'C'/'c' in the first column (Fortran style); both run to end of line.
// Newlines are significant (statements are line-oriented). src is read as
// UTF-8, and columns are 1-based rune counts within the line. Identifiers
// and numbers are ASCII; any other rune outside a comment is an unexpected
// character at its own column.
func lex(file, src string) []token {
	var toks []token
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := ln + 1
		// Fortran comment card: C or * in column one.
		if len(raw) > 0 && (raw[0] == 'C' || raw[0] == 'c' || raw[0] == '*') {
			// Only if followed by space or nothing (so identifiers starting
			// with c at column 0 in free form still work when indented).
			if len(raw) == 1 || raw[1] == ' ' || raw[1] == '\t' || raw[1] == '$' {
				continue
			}
		}
		if i := strings.IndexByte(raw, '!'); i >= 0 {
			raw = raw[:i]
		}
		// i is the byte offset, col the rune column.
		i, col := 0, 1
		emitted := false
		for i < len(raw) {
			c := raw[i]
			pos := Pos{Line: line, Col: col}
			j := i + 1
			switch {
			case c == ' ' || c == '\t' || c == '\r':
			case isLetter(c) || c == '_':
				for j < len(raw) && isIdentChar(raw[j]) {
					j++
				}
				toks = append(toks, token{tokIdent, raw[i:j], pos})
				emitted = true
			case isDigit(c) || c == '.':
				for j < len(raw) && (isDigit(raw[j]) || raw[j] == '.') {
					j++
				}
				toks = append(toks, token{tokNumber, raw[i:j], pos})
				emitted = true
			default:
				r, size := utf8.DecodeRuneInString(raw[i:])
				kind, ok := punct(r)
				if !ok {
					fail(file, pos, "unexpected character %q", r)
				}
				toks = append(toks, token{kind, string(r), pos})
				j = i + size
				emitted = true
			}
			col += utf8.RuneCountInString(raw[i:j])
			i = j
		}
		if emitted {
			toks = append(toks, token{tokNewline, "", Pos{Line: line, Col: col}})
		}
	}
	toks = append(toks, token{tokEOF, "", Pos{Line: len(lines), Col: 1}})
	return toks
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
