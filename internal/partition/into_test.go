package partition

import (
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestBisectIntoReusedGeomMatchesFresh refills one Geom and one owner buffer
// over a sequence of clouds of different sizes, dimensions and weightings —
// the adaptive-cycle spelling — and holds every result, and every rank's
// virtual clock, to RCB/RIB on a brand-new Geom. Scratch left over from a
// larger or deeper call (it is poisoned between calls under `go test`) must
// not leak into a smaller one.
func TestBisectIntoReusedGeomMatchesFresh(t *testing.T) {
	type cloud struct {
		n, dim   int
		seed     int64
		weighted bool
	}
	clouds := []cloud{{900, 3, 1, true}, {300, 2, 2, false}, {1200, 3, 3, false}, {40, 3, 4, true}, {900, 2, 5, true}, {3, 3, 6, false}}
	for _, inertial := range []bool{false, true} {
		fresh, into := RCB, RCBInto
		if inertial {
			fresh, into = RIB, RIBInto
		}
		for _, nprocs := range []int{1, 2, 3, 5, 8} {
			want := make([][][]int32, len(clouds)) // [cloud][rank]
			for ci, c := range clouds {
				want[ci] = make([][]int32, nprocs)
				comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
					want[ci][p.Rank()] = fresh(p, cloudGeom(p, c.n, c.dim, c.seed, c.weighted))
				})
			}
			var freshClock, intoClock float64
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				for _, c := range clouds {
					fresh(p, cloudGeom(p, c.n, c.dim, c.seed, c.weighted))
				}
				if p.Rank() == 0 {
					freshClock = p.Clock()
				}
			})
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				var g Geom
				var owners []int32
				for ci, c := range clouds {
					src := cloudGeom(p, c.n, c.dim, c.seed, c.weighted)
					g.Dim, g.X, g.Y, g.Z, g.W = src.Dim, src.X, src.Y, src.Z, src.W
					owners = into(owners, p, &g)
					if !slices.Equal(owners, want[ci][p.Rank()]) {
						t.Errorf("inertial=%v on %d ranks, cloud %d: rank %d's owners from a reused Geom differ from a fresh one's", inertial, nprocs, ci, p.Rank())
					}
				}
				if p.Rank() == 0 {
					intoClock = p.Clock()
				}
			})
			if math.Float64bits(freshClock) != math.Float64bits(intoClock) {
				t.Errorf("inertial=%v on %d ranks: virtual time %v with reused scratch, %v fresh", inertial, nprocs, intoClock, freshClock)
			}
		}
	}
}

// TestBisectIntoSteadyStateAllocs: once a Geom's scratch is warm, a
// repartition of the same-sized cloud allocates nothing on any rank.
func TestBisectIntoSteadyStateAllocs(t *testing.T) {
	const nprocs = 4
	got := make([]float64, nprocs)
	for _, into := range []func([]int32, *comm.Proc, *Geom) []int32{RCBInto, RIBInto} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			g := cloudGeom(p, 2000, 3, 7, true)
			var owners []int32
			body := func() { owners = into(owners, p, g) }
			for i := 0; i < 3; i++ {
				body()
			}
			// Every rank runs AllocsPerRun so the collectives stay in lockstep.
			got[p.Rank()] = testing.AllocsPerRun(10, body)
		})
		for r, a := range got {
			if a != 0 {
				t.Errorf("rank %d: %.0f allocs per warm repartition, want 0", r, a)
			}
		}
	}
}

// TestByName: the named dispatch is the direct call — same owners, same
// virtual clock, the owner buffer reused where the partitioner has an
// ...Into form — and a name outside Known's geometric three is refused.
func TestByName(t *testing.T) {
	direct := map[string]func(dst []int32, p *comm.Proc, g *Geom) []int32{
		"rcb":   RCBInto,
		"rib":   RIBInto,
		"chain": func(_ []int32, p *comm.Proc, g *Geom) []int32 { return Chain(p, 0, g) },
	}
	for name, call := range direct {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
		for _, nprocs := range []int{1, 3, 4} {
			want, clock := make([][]int32, nprocs), make([]float64, nprocs)
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				want[p.Rank()] = call(nil, p, cloudGeom(p, 700, 3, 11, true))
				clock[p.Rank()] = p.Clock()
			})
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				g := cloudGeom(p, 700, 3, 11, true)
				dst := make([]int32, 0, 2*g.Len())
				got := ByName(dst, p, name, g)
				if !slices.Equal(got, want[p.Rank()]) || p.Clock() != clock[p.Rank()] {
					t.Errorf("%s on %d ranks: ByName differs from the direct call on rank %d", name, nprocs, p.Rank())
				}
				if name != "chain" && &got[0] != &dst[:1][0] {
					t.Errorf("%s: ByName did not write into dst", name)
				}
			})
		}
	}
	if !Known("block") || Known("voronoi") || Known("") {
		t.Error(`Known must accept "block" and refuse "voronoi" and ""`)
	}
	for _, bad := range []string{"block", "voronoi", ""} {
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("ByName(%q) did not panic", bad)
				}
			}()
			ByName(nil, p, bad, cloudGeom(p, 10, 2, 1, false))
		})
	}
}

// TestBlockOwnersInto: the fill is BlockOwner per global index, into the
// buffer it is handed.
func TestBlockOwnersInto(t *testing.T) {
	const n, nprocs = 103, 7
	globals := []int32{0, 102, 51, 14, 15, 88, 3}
	dst := make([]int32, 2, 16)
	got := BlockOwnersInto(dst, globals, n, nprocs)
	if len(got) != len(globals) || &got[0] != &dst[0] {
		t.Fatalf("got %d owners (reused=%v), want %d in dst's array", len(got), &got[0] == &dst[0], len(globals))
	}
	for i, g := range globals {
		if got[i] != int32(BlockOwner(int(g), n, nprocs)) {
			t.Errorf("global %d: owner %d, want %d", g, got[i], BlockOwner(int(g), n, nprocs))
		}
	}
	if got := BlockOwnersInto(nil, nil, n, nprocs); len(got) != 0 {
		t.Errorf("no globals gave %v", got)
	}
}
