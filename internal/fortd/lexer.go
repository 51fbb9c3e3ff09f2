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
	"unicode"
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
// Newlines are significant (statements are line-oriented). Columns are
// 1-based byte offsets within the line.
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
		i := 0
		emitted := false
		for i < len(raw) {
			c := rune(raw[i])
			pos := Pos{Line: line, Col: i + 1}
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case unicode.IsLetter(c) || c == '_':
				j := i
				for j < len(raw) && (isIdentChar(rune(raw[j]))) {
					j++
				}
				toks = append(toks, token{tokIdent, raw[i:j], pos})
				i = j
				emitted = true
			case unicode.IsDigit(c) || c == '.':
				j := i
				for j < len(raw) && (unicode.IsDigit(rune(raw[j])) || raw[j] == '.') {
					j++
				}
				toks = append(toks, token{tokNumber, raw[i:j], pos})
				i = j
				emitted = true
			default:
				kind, ok := punct(c)
				if !ok {
					fail(file, pos, "unexpected character %q", c)
				}
				toks = append(toks, token{kind, string(c), pos})
				i++
				emitted = true
			}
		}
		if emitted {
			toks = append(toks, token{tokNewline, "", Pos{Line: line, Col: len(raw) + 1}})
		}
	}
	toks = append(toks, token{tokEOF, "", Pos{Line: len(lines), Col: 1}})
	return toks
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '$'
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
