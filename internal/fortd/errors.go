package fortd

import "fmt"

// Pos is a source position: 1-based line and column (byte offset within
// the line). The zero Pos means "position unknown".
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position carries real coordinates.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a positioned front-end diagnostic: lexer, parser and semantic
// errors all carry the file name and the line:col of the offending token,
// rendered in the conventional compiler format so editors can jump to it.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fortd: %s:%d:%d: %s", e.File, e.Pos.Line, e.Pos.Col, e.Msg)
}

// bailout carries a diagnostic from the production that raised it to
// CompileFile, the front end's one recover: the lexer, parser and checker
// stop at the first error without forwarding it.
type bailout struct{ *Error }

// fail ends compilation with a positioned diagnostic.
func fail(file string, pos Pos, format string, args ...any) {
	panic(bailout{&Error{File: file, Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}
