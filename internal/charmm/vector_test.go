package charmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// hostHasVector is whether this host runs the vector kernels at all.
var hostHasVector = VectorKernels

// withKernels runs f with VectorKernels set to vec, then restores it.
func withKernels(vec bool, f func()) {
	defer func(old bool) { VectorKernels = old }(VectorKernels)
	VectorKernels = vec
	f()
}

// needVector skips a test that holds the vector kernels to the Go loops on
// a host that cannot run them, saying so: such a test must not pass there
// without having compared anything.
func needVector(t *testing.T) {
	t.Helper()
	if !hostHasVector {
		t.Skip("this host has no AVX2 kernels (not amd64, or no AVX2, POPCNT or OS-saved YMM state): nothing to compare")
	}
}

// kernelValue draws a coordinate: uniform in [0, 4) except, with odds 1 in
// special, a special one — ±0, ±Inf, a NaN of one of three payloads, or one
// of the exact values 2.5 and 1.5 (which put a partner at exactly the cutoff
// 2.5 of the origin, or exactly on another atom).
func kernelValue(rng *rand.Rand, special int) float64 {
	if rng.Intn(special) > 0 {
		return 4 * rng.Float64()
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff8_0000_0000_0001),
		2.5, 1.5,
	}
	return specials[rng.Intn(len(specials))]
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// walkInput is one search for the walk fuzzers: columns of candidates
// ending in the grid's padding, an atom (self at p) and a list prefix.
type walkInput struct {
	ids     []int32
	x, y, z []float64
	self    int32
	p       [3]float64
	c2      float64
	prefix  []int32
}

// drawWalk draws n candidates. Ids cluster around self (equal to it
// among them) with some far away of either sign; coordinates are kernelValue's,
// so partners sit at exactly the cutoff 2.5 of an atom at the origin or on
// the atom itself, and ±0, ±Inf and NaN occur throughout.
func drawWalk(rng *rand.Rand, n int) walkInput {
	special := 1 + rng.Intn(8) // odds of a special value: 1 in 1 to 8
	value := func() float64 { return kernelValue(rng, special) }
	w := walkInput{self: int32(rng.Intn(64) - 8), c2: 6.25}
	w.ids = make([]int32, n, n+walkPad)
	w.x, w.y, w.z = make([]float64, n, n+walkPad), make([]float64, n, n+walkPad), make([]float64, n, n+walkPad)
	for k := range w.ids {
		w.ids[k] = w.self + int32(rng.Intn(9)) - 4
		if rng.Intn(16) == 0 {
			w.ids[k] = int32(rng.Uint32()) // far from self, either sign
		}
		w.x[k], w.y[k], w.z[k] = value(), value(), value()
	}
	for range walkPad {
		w.ids = append(w.ids, math.MinInt32)
		w.x, w.y, w.z = append(w.x, math.NaN()), append(w.y, math.NaN()), append(w.z, math.NaN())
	}
	if rng.Intn(2) == 0 {
		w.p = [3]float64{value(), value(), value()}
	}
	if rng.Intn(4) == 0 {
		w.c2 = value()
	}
	w.prefix = make([]int32, 1+rng.Intn(5))
	for k := range w.prefix {
		w.prefix[k] = rng.Int31()
	}
	return w
}

// checkWalk holds walk over rs on the vector path (walkAVX2, all ranges in
// one call) to the Go path (scanTail range by range): the same ids in the
// same order after the same prefix.
func checkWalk(t *testing.T, w walkInput, rs []cellRange) {
	t.Helper()
	run := func(vec bool) (jnb []int32) {
		withKernels(vec, func() {
			jnb = walk(slices.Clone(w.prefix), rs, w.ids, w.x, w.y, w.z, w.self, w.p[0], w.p[1], w.p[2], w.c2)
		})
		return jnb
	}
	if got, want := run(true), run(false); !slices.Equal(got, want) {
		t.Fatalf("self %d, p %v, c2 %v, ranges %v, ids %v:\nvector %v\nGo     %v", w.self, w.p, w.c2, rs, w.ids, got, want)
	}
}

// FuzzScanRange holds a walk over one range to its Go loop, bit for bit. The
// seed corpus runs every range length from 0 to 67, so every tail length
// meets every number of vector steps; the range starts at the front of the
// columns or a few candidates in, and ends at their padding or before other
// candidates, which its masked tail must not take.
func FuzzScanRange(f *testing.F) {
	for n := range 68 {
		f.Add(int64(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		needVector(t)
		rng := rand.New(rand.NewSource(seed))
		before, after := rng.Intn(4), rng.Intn(4)
		w := drawWalk(rng, before+int(n)+after)
		checkWalk(t, w, []cellRange{{int32(before), int32(before + int(n))}})
	})
}

// FuzzWalk holds walk's vector kernel, all of an atom's ranges in one call,
// to scanTail run range by range, bit for bit. Each input has 0 to 9 ranges
// over columns of 0 to 67 candidates (the seed corpus runs every column
// length): empty ones, the whole column, ranges that start at its front or
// end at its padding, and ranges that overlap or repeat.
func FuzzWalk(f *testing.F) {
	for n := range 68 {
		f.Add(int64(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		needVector(t)
		rng := rand.New(rand.NewSource(seed))
		cols := int(n) % 68
		w := drawWalk(rng, cols)
		rs := make([]cellRange, rng.Intn(10))
		for i := range rs {
			lo, hi := rng.Intn(cols+1), rng.Intn(cols+1)
			lo, hi = min(lo, hi), max(lo, hi)
			switch rng.Intn(6) {
			case 0:
				hi = lo // empty
			case 1:
				lo, hi = 0, cols // the whole column
			case 2:
				lo = 0
			case 3:
				hi = cols
			}
			rs[i] = cellRange{int32(lo), int32(hi)}
		}
		checkWalk(t, w, rs)
	})
}

// FuzzPairForceRow holds pairForceRow's vector path to its Go loop, bit for
// bit, over every fi accumulator and every frc slot. The seed corpus runs
// every row length from 0 to 67; partners repeat, sit at exactly the cutoff
// (skipped) or on atom i (r2 == 0, skipped), and positions, fi and frc draw
// ±0, ±Inf and NaNs of several payloads.
func FuzzPairForceRow(f *testing.F) {
	for n := range 68 {
		f.Add(int64(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		needVector(t)
		rng := rand.New(rand.NewSource(seed))
		special := 1 + rng.Intn(8) // odds of a special value: 1 in 1 to 8
		value := func() float64 { return kernelValue(rng, special) }
		atoms := 1 + rng.Intn(24)
		pos := make([]float64, 3*atoms)
		start := make([]float64, 3*atoms)
		for k := range pos {
			pos[k], start[k] = value(), value()
			if rng.Intn(2) == 0 {
				start[k] = -start[k] // −0 among them
			}
		}
		i := rng.Intn(atoms)
		if rng.Intn(2) == 0 {
			copy(pos[3*i:3*i+3], []float64{0, 0, 0})
		}
		js := make([]int32, n)
		for k := range js {
			js[k] = int32(rng.Intn(atoms))
		}
		c2 := 6.25
		if rng.Intn(4) == 0 {
			c2 = value()
		}
		run := func(vec bool) []float64 {
			frc := slices.Clone(start)
			withKernels(vec, func() { pairForceRow(pos[3*i:3*i+3], frc[3*i:3*i+3], js, pos, frc, c2) })
			return frc
		}
		if got, want := run(true), run(false); !sameBits(got, want) {
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Errorf("slot %d: vector %v (%#x), Go %v (%#x)", k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
				}
			}
			t.Fatalf("row %d, partners %v, c2 %v", i, js, c2)
		}
	})
}

// FuzzKernelRow holds kernelRow's vector path to its Go loop, bit for bit,
// over every fi accumulator and every fb slot. The seed corpus runs every
// row length from 0 to 67; partners repeat and sit on atom i's coordinates
// (y == x: a zero difference, +0 or −0 added to ±0), and xb, fb and the fi
// accumulators draw ±0, ±Inf and NaNs of three payloads, so that an add
// meets two NaNs and the operand order decides which payload it keeps.
func FuzzKernelRow(f *testing.F) {
	for n := range 68 {
		f.Add(int64(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		needVector(t)
		rng := rand.New(rand.NewSource(seed))
		special := 1 + rng.Intn(8) // odds of a special value: 1 in 1 to 8
		value := func() float64 { return kernelValue(rng, special) }
		atoms := 1 + rng.Intn(24)
		xb := make([]float64, 3*atoms)
		start := make([]float64, 3*atoms)
		for k := range xb {
			xb[k], start[k] = value(), value()
			if rng.Intn(2) == 0 {
				xb[k], start[k] = -xb[k], -start[k] // −0 among them
			}
		}
		i := rng.Intn(atoms)
		for a := range atoms {
			if rng.Intn(4) == 0 {
				copy(xb[3*a:3*a+3], xb[3*i:3*i+3])
			}
		}
		js := make([]int32, n)
		for k := range js {
			js[k] = int32(rng.Intn(atoms))
		}
		run := func(vec bool) []float64 {
			fb := slices.Clone(start)
			withKernels(vec, func() { kernelRow(xb[3*i:3*i+3], fb[3*i:3*i+3], js, xb, fb) })
			return fb
		}
		if got, want := run(true), run(false); !sameBits(got, want) {
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Errorf("slot %d: vector %v (%#x), Go %v (%#x)", k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
				}
			}
			t.Fatalf("row %d, partners %v, xb %v, fb %v", i, js, xb, start)
		}
	})
}

// TestPairForceRowRejectsBadPartner and TestKernelRowRejectsBadPartner: on
// either path, a partner whose slot lies outside xb or fb — negative, one
// past the end, with only its last coordinate outside, past the end of an fb
// shorter than xb, or MaxInt32 — panics in a row long enough for the vector
// kernel. Nothing is written outside the arrays (the slots just past them,
// in the same backing array, keep their sentinel), and the vector path
// leaves every slot as the Go loop leaves it.
func TestPairForceRowRejectsBadPartner(t *testing.T) {
	rejectsBadPartner(t, func(xi, fi []float64, js []int32, xb, fb []float64) { pairForceRow(xi, fi, js, xb, fb, 6.25) })
}

func TestKernelRowRejectsBadPartner(t *testing.T) {
	rejectsBadPartner(t, kernelRow)
}

func rejectsBadPartner(t *testing.T, row func(xi, fi []float64, js []int32, xb, fb []float64)) {
	const n = 8
	for _, bad := range []struct {
		name    string
		j       int32
		xbLen   int
		fbLen   int
		atFront bool
	}{
		{"negative", -1, 3 * n, 3 * n, false},
		{"past-end", n, 3 * n, 3 * n, true},
		{"last-coordinate", n - 1, 3*n - 1, 3 * n, false},
		{"short-fb", n - 1, 3 * n, 3*n - 3, true},
		{"huge", math.MaxInt32, 3 * n, 3 * n, false},
	} {
		var left [2][]float64 // the backing array each path leaves
		for i, vec := range []bool{false, hostHasVector} {
			// xb, a gap, fb, a tail: the gap and the tail hold sentinels.
			backing := make([]float64, 2*3*n+8)
			for k := range backing {
				backing[k] = 7
			}
			xb, fb := backing[:bad.xbLen], backing[3*n+4:3*n+4+bad.fbLen]
			for k := range xb {
				xb[k] = 0.05 * float64(k) // every partner within the cutoff of atom 0
			}
			for k := range fb {
				fb[k] = 0.5 * float64(k)
			}
			js := []int32{1, 2, 3, 4, 5, 6, 1, 2, 3}
			js[5] = bad.j
			if bad.atFront {
				js[0] = bad.j
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				withKernels(vec, func() { row(xb[:3], fb[:3], js, xb, fb) })
				return
			}()
			if !panicked {
				t.Errorf("vector %v, %s partner %d: no panic", vec, bad.name, bad.j)
			}
			for k, v := range backing {
				if (k >= bad.xbLen && k < 3*n+4 || k >= 3*n+4+bad.fbLen) && v != 7 {
					t.Errorf("vector %v, %s partner %d: slot %d outside the arrays was written (%v)", vec, bad.name, bad.j, k, v)
				}
			}
			left[i] = backing
		}
		if !sameBits(left[0], left[1]) {
			t.Errorf("%s partner %d: the vector path left %v, the Go loop %v", bad.name, bad.j, left[1], left[0])
		}
	}
}

// TestWalkRejectsShortColumns: coordinate columns shorter or longer than
// the ids, and ranges that are reversed, start before the columns or reach
// into their padding, panic on either path instead of being read past the
// columns' end.
func TestWalkRejectsShortColumns(t *testing.T) {
	ids := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	full := make([]float64, len(ids))
	whole := []cellRange{{0, int32(len(ids) - walkPad)}}
	for _, vec := range []bool{false, hostHasVector} {
		for _, c := range []struct {
			cols [3][]float64
			rs   []cellRange
		}{
			{[3][]float64{full[:7], full, full}, whole},
			{[3][]float64{full, full[:7], full}, whole},
			{[3][]float64{full, full, full[:4]}, whole},
			{[3][]float64{full, full, append(full, 0)}, whole},
			{[3][]float64{full, full, full}, []cellRange{{0, 2}, {0, int32(len(ids) - walkPad + 1)}}},
			{[3][]float64{full, full, full}, []cellRange{{3, 2}}},
			{[3][]float64{full, full, full}, []cellRange{{-1, 2}}},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("vector %v: columns of %d, %d, %d for %d ids, ranges %v did not panic", vec, len(c.cols[0]), len(c.cols[1]), len(c.cols[2]), len(ids), c.rs)
					}
				}()
				withKernels(vec, func() { walk(nil, c.rs, ids, c.cols[0], c.cols[1], c.cols[2], 0, 0, 0, 0, 6.25) })
			}()
		}
	}
}

// benchKernels runs bench as two sub-benchmarks: "go", the portable loops,
// and "avx2", the vector kernels (skipped on a host without them).
func benchKernels(b *testing.B, bench func(b *testing.B)) {
	for _, k := range []struct {
		name string
		vec  bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(k.name, func(b *testing.B) {
			if k.vec && !hostHasVector {
				b.Skip("this host has no AVX2 kernels")
			}
			withKernels(k.vec, func() { bench(b) })
		})
	}
}
