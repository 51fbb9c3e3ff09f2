package partition

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

var update = flag.Bool("update", false, "rewrite testdata/bisect.golden from this build instead of comparing")

// bisectCase is one geometry of the bisection golden.
type bisectCase struct {
	dim      int
	weights  string // "nil", "int" or "frac"
	nprocs   int
	inertial bool
	n        int
	seed     int64
	// grid quantizes every coordinate to a few levels, so many elements
	// share a split key; flat puts every element on one point.
	grid, flat bool
}

func (c bisectCase) String() string {
	part := "rcb"
	if c.inertial {
		part = "rib"
	}
	shape := "cloud"
	switch {
	case c.flat:
		shape = "flat"
	case c.grid:
		shape = "grid"
	}
	return fmt.Sprintf("%s dim=%d w=%s P=%d n=%d seed=%d %s", part, c.dim, c.weights, c.nprocs, c.n, c.seed, shape)
}

// bisectCases enumerates 2-D and 3-D clouds × nil, integral and fractional
// weights × P ∈ {2, 3, 4, 7} × RCB and RIB (48 geometries, half of them on a
// coarse grid full of duplicate keys), plus one all-equal cloud per
// partitioner.
func bisectCases() []bisectCase {
	var cs []bisectCase
	rng := rand.New(rand.NewSource(31))
	for _, inertial := range []bool{false, true} {
		for _, nprocs := range []int{2, 3, 4, 7} {
			for _, weights := range []string{"nil", "int", "frac"} {
				for _, dim := range []int{2, 3} {
					cs = append(cs, bisectCase{
						dim: dim, weights: weights, nprocs: nprocs, inertial: inertial,
						n: 40 + rng.Intn(360), seed: rng.Int63(), grid: rng.Intn(2) == 0,
					})
				}
			}
		}
		cs = append(cs, bisectCase{dim: 3, weights: "int", nprocs: 4, inertial: inertial, n: 120, seed: 5, flat: true})
	}
	return cs
}

// geom builds rank p's BLOCK slab of the case's cloud.
func (c bisectCase) geom(p *comm.Proc) *Geom {
	rng := rand.New(rand.NewSource(c.seed))
	coord := func(scale float64) float64 {
		switch {
		case c.flat:
			return 1.5
		case c.grid:
			return float64(rng.Intn(6)) * scale / 6
		}
		return rng.Float64() * scale
	}
	xs, ys, zs, ws := make([]float64, c.n), make([]float64, c.n), make([]float64, c.n), make([]float64, c.n)
	for i := range xs {
		xs[i], ys[i], zs[i] = coord(10), coord(4), coord(2)
		switch c.weights {
		case "int":
			ws[i] = float64(rng.Intn(30)) // zero weights included
		case "frac":
			ws[i] = 0.25 + 3*rng.Float64()
		}
	}
	lo, hi := BlockRange(p.Rank(), c.n, p.Size())
	g := &Geom{Dim: c.dim, X: xs[lo:hi], Y: ys[lo:hi]}
	if c.dim == 3 {
		g.Z = zs[lo:hi]
	}
	if c.weights != "nil" {
		g.W = ws[lo:hi]
	}
	return g
}

// TestBisectGolden holds RCB and RIB to pinned answers over random
// geometries: every rank's owners and the bits of every rank's virtual
// clock after the call. A change to how a cut is found may change neither.
func TestBisectGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range bisectCases() {
		owners := make([]string, c.nprocs)
		clocks := make([]uint64, c.nprocs)
		comm.Run(c.nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			into := rcbInto
			if c.inertial {
				into = ribInto
			}
			var b strings.Builder
			for _, o := range into(nil, p, c.geom(p)) {
				b.WriteByte(byte('0' + o))
			}
			owners[p.Rank()] = b.String()
			clocks[p.Rank()] = math.Float64bits(p.Clock())
		})
		fmt.Fprintf(&out, "# %v\n", c)
		for r := range owners {
			fmt.Fprintf(&out, "%d %016x %s\n", r, clocks[r], owners[r])
		}
	}
	path := filepath.Join("testdata", "bisect.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, the pinned golden has %d", path, len(got), len(wantLines))
	}
	head := ""
	for i := range got {
		if strings.HasPrefix(wantLines[i], "#") {
			head = wantLines[i]
		}
		if got[i] != wantLines[i] {
			t.Errorf("%s line %d (%s):\n  got:  %.80s\n  want: %.80s", path, i+1, head, got[i], wantLines[i])
		}
	}
}
