// Package recycle holds the two things every owner of a recycled buffer
// needs: a resize that keeps the backing array, and a way to make reads of a
// buffer that has been given up loud instead of silent.
//
// The adaptive cycle reuses its storage — the array a remap consumed is the
// next remap's destination, the localized indirection array is rewritten in
// place — so a slice held across the call that retired it no longer reads
// old values: it aliases live data a cycle or two later, and the run
// computes plausible wrong answers. The owner of a buffer therefore calls
// PoisonF64 or PoisonI32 at the moment the buffer dies. In a test binary
// (testing.Testing) that overwrites its whole backing array with a value no
// computation survives; in any other program it is a no-op. Every test in
// the repository — the goldens, the sequential oracles, the mode × transport
// × rank matrices, checkpoint/resume — thereby also checks that nothing
// reads a buffer after its owner gave it up, and that each reuse writes
// every element it later reads.
package recycle

import (
	"math"
	"testing"
)

// Sized returns buf resized to exactly n elements with unspecified contents,
// reusing its backing array when that is large enough. A nil buf gets an
// exact-size array; an offered buffer that turned out too small is replaced
// by one with 1/8 headroom, because a caller that recycles its buffers will
// be back next adapt cycle with a slightly different size.
func Sized[T any](buf []T, n int) []T {
	switch {
	case cap(buf) >= n:
		return buf[:n]
	case buf == nil:
		return make([]T, n)
	default:
		return make([]T, n, n+n/8)
	}
}

// PoisonF64 poisons a dead float64 buffer (whole capacity) with NaN.
func PoisonF64(buf []float64) {
	if !testing.Testing() {
		return
	}
	buf = buf[:cap(buf)]
	nan := math.NaN()
	for i := range buf {
		buf[i] = nan
	}
}

// PoisonI32 poisons a dead int32 buffer (whole capacity) with MinInt32: as
// an index it is out of range of every array, as a length it is negative.
func PoisonI32(buf []int32) {
	if !testing.Testing() {
		return
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = math.MinInt32
	}
}
