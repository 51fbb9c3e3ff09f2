//go:build race

package hashtab

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own: allocation counts are not checked there.
const raceEnabled = true
