package fortd

import "fmt"

// srcPos is a source position: 1-based line and column (byte offset within
// the line). The zero Pos means "position unknown".
type srcPos struct {
	line int
	col  int
}

func (p srcPos) String() string { return fmt.Sprintf("%d:%d", p.line, p.col) }

// posError is a positioned front-end diagnostic: lexer, parser and semantic
// errors all carry the file name and the line:col of the offending token,
// rendered in the conventional compiler format so editors can jump to it.
type posError struct {
	file string
	pos  srcPos
	msg  string
}

func (e *posError) Error() string {
	return fmt.Sprintf("fortd: %s:%d:%d: %s", e.file, e.pos.line, e.pos.col, e.msg)
}

// bailout carries a diagnostic from the production that raised it to
// CompileFile, the front end's one recover: the lexer, parser and checker
// stop at the first error without forwarding it.
type bailout struct{ *posError }

// fail ends compilation with a positioned diagnostic.
func fail(file string, pos srcPos, format string, args ...any) {
	panic(bailout{&posError{file: file, pos: pos, msg: fmt.Sprintf(format, args...)}})
}
