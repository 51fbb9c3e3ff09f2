package charmm

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// refGrid is the neighbour search the CSR grid replaced — per-cell slices
// walked through a per-candidate closure — kept here as the order-exact
// oracle: rows of the non-bonded list must come out in the same order, and
// the same candidates must be counted, as this walk produced.
type refGrid struct {
	nx, ny, nz int
	inv        float64
	cells      [][]int32
}

func newRefGrid(pos []float64, n int, box [3]float64, cutoff float64) *refGrid {
	g := &refGrid{
		nx:  max(1, int(box[0]/cutoff)),
		ny:  max(1, int(box[1]/cutoff)),
		nz:  max(1, int(box[2]/cutoff)),
		inv: 1 / cutoff,
	}
	g.cells = make([][]int32, g.nx*g.ny*g.nz)
	for i := 0; i < n; i++ {
		cx, cy, cz := g.coords(pos[3*i:])
		c := (cz*g.ny+cy)*g.nx + cx
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

func (g *refGrid) coords(p []float64) (cx, cy, cz int) {
	clampCell := func(c, n int) int {
		if c < 0 {
			return 0
		}
		if c >= n {
			return n - 1
		}
		return c
	}
	return clampCell(int(p[0]*g.inv), g.nx), clampCell(int(p[1]*g.inv), g.ny), clampCell(int(p[2]*g.inv), g.nz)
}

// neighbors calls fn for every atom index in the 27-cell neighbourhood of
// position p and returns the number of candidates examined.
func (g *refGrid) neighbors(p []float64, fn func(j int32)) int {
	cx, cy, cz := g.coords(p)
	examined := 0
	for dz := -1; dz <= 1; dz++ {
		z := cz + dz
		if z < 0 || z >= g.nz {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= g.ny {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= g.nx {
					continue
				}
				for _, j := range g.cells[(z*g.ny+y)*g.nx+x] {
					fn(j)
					examined++
				}
			}
		}
	}
	return examined
}

// refNBList builds rows for the first nRows atoms of pos against all n atoms
// the old way; ids nil means an atom's id is its index. examined is per row.
func refNBList(pos []float64, ids []int32, n, nRows int, cfg Config) (ptr, jnb []int32, examined []int) {
	idOf := func(i int32) int32 {
		if ids == nil {
			return i
		}
		return ids[i]
	}
	grid := newRefGrid(pos, n, cfg.box, cfg.Cutoff)
	c2 := cfg.Cutoff * cfg.Cutoff
	ptr = make([]int32, nRows+1)
	examined = make([]int, nRows)
	for i := 0; i < nRows; i++ {
		g := idOf(int32(i))
		pg := pos[3*i : 3*i+3]
		examined[i] = grid.neighbors(pg, func(j int32) {
			gj := idOf(j)
			if gj <= g {
				return
			}
			dx := pg[0] - pos[3*j]
			dy := pg[1] - pos[3*j+1]
			dz := pg[2] - pos[3*j+2]
			if dx*dx+dy*dy+dz*dz < c2 {
				jnb = append(jnb, gj)
			}
		})
		ptr[i+1] = int32(len(jnb))
	}
	return ptr, jnb, examined
}

// nbCase is one random atom configuration for the search oracle.
type nbCase struct {
	name string
	cfg  Config
	pos  []float64
}

// nbCases generates the configurations the oracle runs over: cubic and
// non-cubic boxes, a box thinner than the cutoff along x (nx = 1), boxes
// that are not a whole number of cutoffs (the last cell of each axis is
// oversized and positions beyond nx*cutoff clamp into it), and atoms sitting
// exactly on the upper and lower walls.
func nbCases() []nbCase {
	shapes := []struct {
		name string
		box  [3]float64
	}{
		{"cubic", [3]float64{10, 10, 10}},
		{"noncubic", [3]float64{17.5, 7.5, 5}},
		{"thin-x", [3]float64{1.9, 12, 9}},
		{"fractional", [3]float64{11.3, 9.99, 6.2}},
		{"one-cell", [3]float64{2.1, 2.4, 1.0}},
	}
	var cases []nbCase
	for trial := 0; trial < 55; trial++ {
		sh := shapes[trial%len(shapes)]
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 40 + rng.Intn(360)
		cfg := Config{NAtoms: n, box: sh.box, Cutoff: 2.5}
		pos := make([]float64, 3*n)
		for i := range pos {
			pos[i] = rng.Float64() * cfg.box[i%3]
		}
		// A tenth of the atoms sit exactly on a wall in some axis.
		for k := 0; k < n/10; k++ {
			i, d := rng.Intn(n), rng.Intn(3)
			pos[3*i+d] = cfg.box[d] * float64(rng.Intn(2))
		}
		cases = append(cases, nbCase{fmt.Sprintf("%s-%d", sh.name, trial), cfg, pos})
	}
	return cases
}

// TestNBListSeqMatchesClosureWalk holds the CSR search to the old closure
// walk exactly: same ptr, same jnb in the same order, same candidates
// examined per atom — on a grid that is reused across all configurations,
// so stale storage from a larger or differently shaped case cannot leak.
func TestNBListSeqMatchesClosureWalk(t *testing.T) {
	var nb nbSearch
	for _, c := range nbCases() {
		n := c.cfg.NAtoms
		wantPtr, wantJnb, wantEx := refNBList(c.pos, nil, n, n, c.cfg)
		ptr, jnb := nb.buildSeq(c.pos, n, c.cfg)
		if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
			t.Fatalf("%s: CSR search list differs from the closure walk (%d vs %d entries)", c.name, len(jnb), len(wantJnb))
		}
		ex := make([]int, n)
		for i := range ex {
			_, ex[i] = nb.grid.appendPartners(nil, c.pos[3*i:3*i+3], int32(i), c.cfg.Cutoff*c.cfg.Cutoff)
		}
		if !slices.Equal(ex, wantEx) {
			t.Fatalf("%s: per-atom examined counts differ from the closure walk", c.name)
		}
		total := 0
		for _, e := range wantEx {
			total += e
		}
		if nb.examined != total {
			t.Fatalf("%s: examined %d candidates, closure walk %d", c.name, nb.examined, total)
		}
		// The throw-away-storage spelling is the same search.
		ptr2, jnb2 := buildNBListSeq(c.pos, n, c.cfg)
		if !slices.Equal(ptr2, ptr) || !slices.Equal(jnb2, jnb) {
			t.Fatalf("%s: buildNBListSeq differs from a reused nbSearch", c.name)
		}
	}
}

// TestNBListParMatchesClosureWalk runs the halo-exchange build on 1-4 ranks
// with a scrambled ownership that leaves the last rank empty, and holds each
// rank's list and examined count to the closure walk over the same own +
// halo atoms. The rank-local nbSearch is reused across all configurations.
func TestNBListParMatchesClosureWalk(t *testing.T) {
	cases := nbCases()
	for _, nprocs := range []int{1, 2, 3, 4} {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			var nb nbSearch
			for ci, c := range cases {
				// Scrambled ownership; with more than one rank the last one
				// owns nothing (an empty rank publishes an inverted box).
				owning := max(1, nprocs-1)
				rng := rand.New(rand.NewSource(int64(ci)))
				var globals []int32
				var pos []float64
				for g := 0; g < c.cfg.NAtoms; g++ {
					if rng.Intn(owning) == p.Rank() {
						globals = append(globals, int32(g))
						pos = append(pos, c.pos[3*g:3*g+3]...)
					}
				}
				ptr, jnb := buildNBListPar(p, globals, pos, c.cfg, &nb)

				nAll := len(nb.allG)
				if !slices.Equal(nb.allG[:len(globals)], globals) {
					t.Errorf("%s on %d ranks: rank %d's own atoms do not lead the assembled list", c.name, nprocs, p.Rank())
					continue
				}
				wantPtr, wantJnb, wantEx := refNBList(nb.allP, nb.allG, nAll, len(globals), c.cfg)
				if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
					t.Errorf("%s on %d ranks: rank %d's list differs from the closure walk (%d vs %d entries)",
						c.name, nprocs, p.Rank(), len(jnb), len(wantJnb))
				}
				total := 0
				for _, e := range wantEx {
					total += e
				}
				if nb.examined != total {
					t.Errorf("%s on %d ranks: rank %d examined %d candidates, closure walk %d",
						c.name, nprocs, p.Rank(), nb.examined, total)
				}

				// The ranks' lists together are the sequential list.
				seqPtr, _ := buildNBListSeq(c.pos, c.cfg.NAtoms, c.cfg)
				rows := p.AllReduceScalarI64(comm.OpSum, int64(len(jnb)))
				if rows != int64(seqPtr[c.cfg.NAtoms]) {
					t.Errorf("%s on %d ranks: %d partners in total, sequential list has %d", c.name, nprocs, rows, seqPtr[c.cfg.NAtoms])
				}
			}
		})
	}
}

// atCutoffCase places pairs at exactly the cutoff along each axis and in
// both directions (3.5 − 1.0 = 2.5 and 6.0 − 3.5 = 2.5 are exact, so d² ==
// c2 == 6.25): every one of them is excluded. Around them, pairs just inside
// the cutoff are included. wantJnb is the list written out by hand.
func atCutoffCase() (c nbCase, wantPtr, wantJnb []int32) {
	pos := []float64{
		3.5, 1, 1, // 0
		1, 1, 1, // 1: 2.5 below 0 in x
		6, 1, 1, // 2: 2.5 above 0 in x
		1, 3.5, 1, // 3: 2.5 from 1 in y
		1, 1, 3.5, // 4: 2.5 from 1 in z
		1, 1, 1.5, // 5: 0.5 from 1, 2.0 from 4
		3.5, 1, 3.4999999, // 6: just inside the cutoff of 0 in z
	}
	cfg := Config{NAtoms: len(pos) / 3, box: [3]float64{10, 10, 10}, Cutoff: 2.5}
	return nbCase{"at-cutoff", cfg, pos}, []int32{0, 1, 2, 2, 2, 3, 3, 3}, []int32{6, 5, 5}
}

// coincidentCase stacks atoms on one position (d² == 0: partners), twice on
// the box corner, and puts one atom at exactly the cutoff from a stack.
func coincidentCase() (c nbCase, wantPtr, wantJnb []int32) {
	pos := []float64{
		4, 4, 4, // 0
		4, 4, 4, // 1
		4, 4, 4, // 2
		0, 0, 0, // 3
		0, 0, 0, // 4
		6.5, 4, 4, // 5: 2.5 from 0, 1 and 2
	}
	cfg := Config{NAtoms: len(pos) / 3, box: [3]float64{10, 10, 10}, Cutoff: 2.5}
	return nbCase{"coincident", cfg, pos}, []int32{0, 2, 3, 3, 4, 4, 4}, []int32{1, 2, 2, 4}
}

// checkNBListCase holds the sequential build, and the halo-exchange build on
// 1–3 ranks under a round-robin ownership, to the closure walk over the same
// atoms. With hint1 set, nbSearch.hint is forced to 1 before the build, so
// the list starts without room and all of it is reserved range by range.
func checkNBListCase(t *testing.T, c nbCase, hint1 bool) {
	t.Helper()
	n := c.cfg.NAtoms
	var nb nbSearch
	if hint1 {
		nb.hint = 1
	}
	wantPtr, wantJnb, _ := refNBList(c.pos, nil, n, n, c.cfg)
	ptr, jnb := nb.buildSeq(c.pos, n, c.cfg)
	if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
		t.Errorf("%s: sequential list %v %v, closure walk %v %v", c.name, ptr, jnb, wantPtr, wantJnb)
	}
	for _, nprocs := range []int{1, 2, 3} {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			var globals []int32
			var pos []float64
			for g := p.Rank(); g < n; g += nprocs {
				globals = append(globals, int32(g))
				pos = append(pos, c.pos[3*g:3*g+3]...)
			}
			var nb nbSearch
			if hint1 {
				nb.hint = 1
			}
			ptr, jnb := buildNBListPar(p, globals, pos, c.cfg, &nb)
			wantPtr, wantJnb, _ := refNBList(nb.allP, nb.allG, len(nb.allG), len(globals), c.cfg)
			if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
				t.Errorf("%s on %d ranks: rank %d's list %v %v, closure walk %v %v",
					c.name, nprocs, p.Rank(), ptr, jnb, wantPtr, wantJnb)
			}
		})
	}
}

// TestNBListBoundaryCases: a pair at exactly the cutoff is not a partner and
// coincident atoms are, in the list written out by hand and on 1–3 ranks.
func TestNBListBoundaryCases(t *testing.T) {
	for _, mk := range []func() (nbCase, []int32, []int32){atCutoffCase, coincidentCase} {
		c, wantPtr, wantJnb := mk()
		ptr, jnb := buildNBListSeq(c.pos, c.cfg.NAtoms, c.cfg)
		if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
			t.Errorf("%s: list %v %v, want %v %v", c.name, ptr, jnb, wantPtr, wantJnb)
		}
		checkNBListCase(t, c, false)
	}
}

// TestNBListGrowsFromHintOne builds every configuration — the 55 random
// ones and the two boundary cases — from a list hint of 1, so the list's
// capacity comes from walk's per-atom reservations, not from the
// up-front estimate.
func TestNBListGrowsFromHintOne(t *testing.T) {
	cutoff, _, _ := atCutoffCase()
	coincident, _, _ := coincidentCase()
	for _, c := range append(nbCases(), cutoff, coincident) {
		checkNBListCase(t, c, true)
	}
}

// BenchmarkNBListBuild times one non-bonded list rebuild of the 8000-atom
// benchmark configuration with the working storage warm, as it is inside a
// run: "seq" is buildSeq (the ids == nil path of Reference and kernelSetup),
// "ranks=N" the halo-exchange build of block-distributed initial positions on
// N ranks. B/op covers all ranks: what is left is the list itself and the
// halo messages. ns/cand divides the time per build by the candidates all
// ranks examine in it, ns/atom by the rows they search, and ranges/atom is
// the mean number of cell ranges a row's walk is handed (ranges): a cost
// per call or per range shows in ns/atom, not in ns/cand. Each runs under
// "go" (the portable scan) and "avx2" (the vector kernel).
func BenchmarkNBListBuild(b *testing.B) {
	benchKernels(b, benchNBListBuild)
}

func benchNBListBuild(b *testing.B) {
	cfg := ConfigForAtoms(8000)
	init := genInitState(cfg)
	// report divides one build's time among its candidates and rows.
	report := func(b *testing.B, examined, rows, ranges int) {
		perBuild := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perBuild/float64(examined), "ns/cand")
		b.ReportMetric(perBuild/float64(rows), "ns/atom")
		b.ReportMetric(float64(ranges)/float64(rows), "ranges/atom")
	}
	c2 := cfg.Cutoff * cfg.Cutoff
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		var nb nbSearch
		nb.buildSeq(init.pos, cfg.NAtoms, cfg) // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nb.buildSeq(init.pos, cfg.NAtoms, cfg)
		}
		report(b, nb.examined, cfg.NAtoms, walkRanges(&nb.grid, init.pos, cfg.NAtoms, c2))
	})
	for _, nprocs := range []int{1, 2} {
		b.Run(fmt.Sprintf("ranks=%d", nprocs), func(b *testing.B) {
			b.ReportAllocs()
			examined, ranges := make([]int, nprocs), make([]int, nprocs)
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, nprocs)
				globals := make([]int32, hi-lo)
				for i := range globals {
					globals[i] = int32(lo + i)
				}
				pos := init.pos[3*lo : 3*hi]
				var nb nbSearch
				buildNBListPar(p, globals, pos, cfg, &nb) // warm-up
				p.Barrier()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					buildNBListPar(p, globals, pos, cfg, &nb)
				}
				examined[p.Rank()] = nb.examined
				ranges[p.Rank()] = walkRanges(&nb.grid, nb.allP, len(globals), c2)
			})
			report(b, sum(examined), cfg.NAtoms, sum(ranges))
		})
	}
}

// walkRanges counts the ranges the walks of the first n atoms at pos are
// handed on grid g.
func walkRanges(g *cellGrid, pos []float64, n int, c2 float64) int {
	total := 0
	var rs [9]cellRange
	for i := range n {
		nr, _, _ := g.ranges(&rs, pos[3*i:3*i+3], c2)
		total += nr
	}
	return total
}

// sum adds up xs.
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// TestNBListRebuildReusesRetired: a list handed back through retire is the
// next build's storage — its backing arrays are reused when they hold the
// last list's length (and the new list fits), and a fresh array is
// allocated when they do not — and the list built there equals, bit for
// bit, the build of a fresh nbSearch. The retired arrays are poisoned, so a
// cell the build leaves unwritten shows.
func TestNBListRebuildReusesRetired(t *testing.T) {
	cases := nbCases()
	for _, nprocs := range []int{1, 2, 3} {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			var nb nbSearch
			var ptr, jnb []int32
			reused, fresh := 0, 0
			for ci, c := range cases {
				lo, hi := partition.BlockRange(p.Rank(), c.cfg.NAtoms, nprocs)
				globals := make([]int32, hi-lo)
				for i := range globals {
					globals[i] = int32(lo + i)
				}
				pos := c.pos[3*lo : 3*hi]
				if ci%3 == 2 {
					jnb = jnb[: 0 : len(jnb)/2] // a retired array shorter than the hint
				}
				fitsJnb := jnb != nil && cap(jnb) >= nb.hint
				fitsPtr := cap(ptr) >= hi-lo+1
				oldPtr, oldJnb := unsafe.SliceData(ptr), unsafe.SliceData(jnb)
				oldCap := cap(jnb)
				nb.retire(ptr, jnb)
				ptr, jnb = buildNBListPar(p, globals, pos, c.cfg, &nb)

				var other nbSearch
				wantPtr, wantJnb := buildNBListPar(p, globals, pos, c.cfg, &other)
				if !slices.Equal(ptr, wantPtr) || !slices.Equal(jnb, wantJnb) {
					t.Fatalf("%s on %d ranks: rank %d's list built in a retired one differs from a fresh build", c.name, nprocs, p.Rank())
				}
				if ci == 0 {
					continue
				}
				if (unsafe.SliceData(ptr) == oldPtr) != fitsPtr {
					t.Errorf("%s on %d ranks: rank %d's ptr reused the retired one %v, want %v", c.name, nprocs, p.Rank(), !fitsPtr, fitsPtr)
				}
				switch sameJnb := unsafe.SliceData(jnb) == oldJnb; {
				case fitsJnb && len(jnb) <= oldCap:
					reused++
					if !sameJnb {
						t.Errorf("%s on %d ranks: rank %d's list of %d fits the retired %d but was not built there", c.name, nprocs, p.Rank(), len(jnb), oldCap)
					}
				case !fitsJnb:
					fresh++
					if sameJnb {
						t.Errorf("%s on %d ranks: rank %d's list was built in a retired array shorter than the hint", c.name, nprocs, p.Rank())
					}
				}
			}
			if reused == 0 || fresh == 0 {
				t.Errorf("%d ranks: rank %d reused %d retired lists and outgrew %d; the cases should do both", nprocs, p.Rank(), reused, fresh)
			}
		})
	}
}

// TestReferenceRetiresItsLists: Reference hands each non-bonded list back
// before the next rebuild, so a run with several rebuilds allocates about
// what a run with one build does, not a list per rebuild.
func TestReferenceRetiresItsLists(t *testing.T) {
	alloc := func(cfg Config) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		Reference(cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cfg := ConfigForAtoms(3000)
	cfg.NBEvery = 2
	cfg.Steps = 1 // the initial build only
	once := alloc(cfg)
	cfg.Steps = 12 // and six rebuilds
	if rebuilt := alloc(cfg); float64(rebuilt) > 1.25*float64(once) {
		t.Errorf("Reference allocated %d bytes with six rebuilds, %d with one build: the rebuilds do not reuse the retired lists", rebuilt, once)
	}
}

// buildNBListSeq is buildSeq with throw-away working storage.
func buildNBListSeq(pos []float64, n int, cfg Config) (ptr, jnb []int32) {
	return new(nbSearch).buildSeq(pos, n, cfg)
}
