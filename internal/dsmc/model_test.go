package dsmc

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// modWrap is the formula wrap's shortcuts must reproduce: math.Mod, then +n
// when the remainder is negative.
func modWrap(v, n float64) float64 {
	v = math.Mod(v, n)
	if v < 0 {
		v += n
	}
	return v
}

func checkWrap(t *testing.T, v, n float64) {
	t.Helper()
	got, want := wrap(v, n), modWrap(v, n)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("wrap(%v, %v) = %v (0x%016x), the math.Mod formula gives %v (0x%016x)",
			v, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestWrapMatchesMod holds wrap bit for bit to the math.Mod formula at each
// edge of its three shortcuts (±0, n, 2n, -n and the floats either side of
// each) and on what they leave to math.Mod (NaN, ±Inf, subnormals, values
// far beyond 2n), for integral, fractional, subnormal and huge periods; 2n
// overflows for the last.
func TestWrapMatchesMod(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	for _, n := range []float64{1, 12, 48, 0.75, 5e-324, 2.5e-308, math.MaxFloat64 / 1.5} {
		vs := []float64{math.NaN(), inf, -inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
			0.5 * n, -0.5 * n, 1e6 * n, -1e6 * n, math.MaxFloat64, -math.MaxFloat64}
		for _, e := range []float64{0, negZero, n, 2 * n, -n} {
			vs = append(vs, e, math.Nextafter(e, inf), math.Nextafter(e, -inf))
		}
		for _, v := range vs {
			checkWrap(t, v, n)
		}
	}
	if w := wrap(negZero, 12); w != 0 || !math.Signbit(w) {
		t.Errorf("wrap(-0, 12) = %v, want -0", w)
	}

	// A tiny negative v whose v+n rounds to n comes back as n itself, one
	// past the domain, as the math.Mod formula returns it. The shortcut keeps
	// that; cellOf's clamp puts such a molecule in the last cell column.
	cfg := smallConfig()
	n := float64(cfg.NX)
	checkWrap(t, -1e-20, n)
	if w := wrap(-1e-20, n); w != n {
		t.Fatalf("wrap(-1e-20, %v) = %v, want %v", n, w, n)
	}
	m := []float64{0, wrap(-1e-20, n), 0.5, 0, 0, 0, 0}
	if c, want := cellOf(&cfg, m), (cfg.NX-1)*cfg.NY; c != want {
		t.Errorf("cellOf(x = %v) = %d, want %d", m[1], c, want)
	}
}

// FuzzWrap: for every v and n, wrap equals the math.Mod formula bit for bit.
func FuzzWrap(f *testing.F) {
	for _, s := range [][2]float64{
		{0.4, 12}, {12.3, 12}, {-0.25, 12}, {-1e-20, 12}, {24, 12}, {1e20, 48},
		{math.NaN(), 16}, {math.Inf(-1), 16}, {3, 0}, {-7, -3},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, v, n float64) { checkWrap(t, v, n) })
}

// TestCollideOrderMatchesSort: orderByID gives the member order of
// slices.SortFunc with cmp.Compare on both sides of insertionSortMax, for
// random permutations of distinct fractional ids.
func TestCollideOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for n := 0; n <= 2*insertionSortMax+2; n++ {
		for trial := 0; trial < 25; trial++ {
			mols := make([]float64, n*recordWidth)
			for i, id := range rng.Perm(4 * (n + 1))[:n] {
				mols[i*recordWidth] = float64(id) + rng.Float64()/2
			}
			members := make([]int, n)
			for i, k := range rng.Perm(n) {
				members[i] = k * recordWidth
			}
			want := slices.Clone(members)
			slices.SortFunc(want, func(a, b int) int { return cmp.Compare(mols[a], mols[b]) })
			orderByID(mols, members)
			if !slices.Equal(members, want) {
				t.Fatalf("%d members, trial %d: order %v, slices.SortFunc gives %v", n, trial, members, want)
			}
		}
	}
}
