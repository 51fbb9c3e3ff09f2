package loopir

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// guardTrace is what loneSumLoop and lonePairLoop return: each drives one
// unshared loop through the §5.3 guard's cases — first run, nothing changed,
// an adapted indirection array, a Touch, a data redistribution, nothing
// changed again — and records, after each Execute, the inspection count and
// this rank's virtual clock.
type guardTrace struct {
	inspections []int
	clocks      []uint64
}

func (tr *guardTrace) record(p *comm.Proc, insp int) {
	tr.inspections = append(tr.inspections, insp)
	tr.clocks = append(tr.clocks, math.Float64bits(p.Clock()))
}

// spread is a deterministic non-BLOCK owner map.
func spread(d *Decomposition, mul int32, p *comm.Proc) []int32 {
	owners := make([]int32, d.NLocal())
	for i, g := range d.Globals() {
		owners[i] = (g*mul + g/3) % int32(p.Size())
	}
	return owners
}

func loneSumLoop(t *testing.T, p *comm.Proc) guardTrace {
	const n = 120
	gptr, gvals := randCSR(n, 4, 21)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i%17) * 0.25
	}
	prog := NewProgram(p)
	dec := prog.Decomposition(n)
	x, f := dec.AlignReal(1), dec.AlignReal(1)
	x.SetByGlobal(func(g int32, c []float64) { c[0] = x0[g] })
	ind := dec.AlignIndCSR()
	ind.SetCSR(localizeCSR(p, n, gptr, gvals))
	loop := prog.NewSumLoop(ind, x, f, 6, figure10Body)

	var tr guardTrace
	check := func(step string, vals []int32) {
		f.Zero()
		loop.Execute()
		tr.record(p, loop.Inspections())
		want := seqSumLoop(n, gptr, vals, x0)
		for i, g := range dec.Globals() {
			if math.Abs(f.Local()[i]-want[g]) > 1e-12 {
				t.Errorf("SumLoop %s, rank %d/%d, global %d: got %v want %v", step, p.Rank(), p.Size(), g, f.Local()[i], want[g])
			}
		}
	}
	check("first run", gvals)
	check("no change", gvals)
	adapted := make([]int32, len(gvals))
	for k, v := range gvals {
		adapted[k] = (v*7 + 3) % n
	}
	ptr, _ := ind.CSR()
	ind.SetCSR(slices.Clone(ptr), localRows(dec, gptr, adapted))
	check("SetCSR", adapted)
	ind.Touch()
	check("Touch", adapted)
	dec.Redistribute(spread(dec, 3, p))
	check("Redistribute", adapted)
	check("no change again", adapted)
	return tr
}

// localRows returns the rows of a global CSR's values this rank owns, in
// local order.
func localRows(dec *Decomposition, gptr, gvals []int32) []int32 {
	var vals []int32
	for _, g := range dec.Globals() {
		vals = append(vals, gvals[gptr[g]:gptr[g+1]]...)
	}
	return vals
}

// pairEnv is a lone PairLoop over random bonds.
type pairEnv struct {
	data, bonds *Decomposition
	x, f        *RealArray
	ia, ib      *IndArray
	loop        *PairLoop
	gia, gib    []int32
	x0          []float64
}

const pairData, pairBonds = 90, 160

func newPairEnv(p *comm.Proc) *pairEnv {
	e := &pairEnv{gia: make([]int32, pairBonds), gib: make([]int32, pairBonds), x0: make([]float64, pairData)}
	rng := rand.New(rand.NewSource(9))
	for k := range e.gia {
		e.gia[k], e.gib[k] = int32(rng.Intn(pairData)), int32(rng.Intn(pairData))
	}
	for i := range e.x0 {
		e.x0[i] = rng.Float64()
	}
	prog := NewProgram(p)
	e.data, e.bonds = prog.Decomposition(pairData), prog.Decomposition(pairBonds)
	e.x, e.f = e.data.AlignReal(1), e.data.AlignReal(1)
	e.x.SetByGlobal(func(g int32, c []float64) { c[0] = e.x0[g] })
	e.ia, e.ib = e.bonds.AlignIndFlat(1), e.bonds.AlignIndFlat(1)
	lo, hi := partition.BlockRange(p.Rank(), pairBonds, p.Size())
	e.ia.SetFlat(slices.Clone(e.gia[lo:hi]))
	e.ib.SetFlat(slices.Clone(e.gib[lo:hi]))
	e.loop = prog.NewPairLoop(e.ia, e.ib, e.x, e.f, 3, bondBody)
	return e
}

// check executes the loop and holds f to the sequential loop over the
// current global bond arrays.
func (e *pairEnv) check(t *testing.T, p *comm.Proc, step string) {
	e.f.Zero()
	e.loop.Execute()
	want := seqPairLoop(pairData, e.gia, e.gib, e.x0)
	for i, g := range e.data.Globals() {
		if math.Abs(e.f.Local()[i]-want[g]) > 1e-12 {
			t.Errorf("PairLoop %s, rank %d/%d, global %d: got %v want %v", step, p.Rank(), p.Size(), g, e.f.Local()[i], want[g])
		}
	}
}

func lonePairLoop(t *testing.T, p *comm.Proc) guardTrace {
	e := newPairEnv(p)
	var tr guardTrace
	check := func(step string) {
		e.check(t, p, step)
		tr.record(p, e.loop.Inspections())
	}
	check("first run")
	check("no change")
	for k := range e.gib {
		e.gib[k] = (e.gib[k]*5 + 2) % pairData
	}
	vals := make([]int32, e.bonds.NLocal())
	for i, g := range e.bonds.Globals() {
		vals[i] = e.gib[g]
	}
	e.ib.SetFlat(vals)
	check("SetFlat")
	e.ia.Touch()
	check("Touch")
	e.data.Redistribute(spread(e.data, 7, p))
	check("Redistribute")
	check("no change again")
	return tr
}

// TestPrivateGroupParity: a loop nobody shared inspects through a schedule
// group of its own, and that group is the guard the loop used to carry
// itself — the inspection counts, and every rank's virtual clock after every
// execution, equal the values measured with the private guards (at commit
// bff47d9), and the results equal the sequential loop's.
func TestPrivateGroupParity(t *testing.T) {
	wantInspections := []int{1, 1, 2, 3, 4, 4}
	for _, tc := range []struct {
		name   string
		run    func(*testing.T, *comm.Proc) guardTrace
		clocks map[int][][]uint64 // ranks -> rank -> clock bits per execution
	}{
		{"SumLoop", loneSumLoop, sumLoopClocks},
		{"PairLoop", lonePairLoop, pairLoopClocks},
	} {
		for _, nprocs := range []int{1, 2, 3} {
			got := make([]guardTrace, nprocs)
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { got[p.Rank()] = tc.run(t, p) })
			for r, tr := range got {
				if !slices.Equal(tr.inspections, wantInspections) {
					t.Errorf("%s on %d ranks, rank %d: inspections %v, want %v", tc.name, nprocs, r, tr.inspections, wantInspections)
				}
				if !slices.Equal(tr.clocks, tc.clocks[nprocs][r]) {
					t.Errorf("%s on %d ranks, rank %d: clocks %#x, want %#x", tc.name, nprocs, r, tr.clocks, tc.clocks[nprocs][r])
				}
			}
		}
	}
}

var sumLoopClocks = map[int][][]uint64{
	1: {
		{0x3f526f1866a92c5f, 0x3f5cc68a3d861d67, 0x3f66b09b93c4c369, 0x3f6efa970a732088, 0x3f74b1e8c5d1b0e0, 0x3f7747c53b88ed22},
	},
	2: {
		{0x3f63994f71d8348b, 0x3f69ec7abd0a8cf7, 0x3f718ac1e568242b, 0x3f765d59cd50d634, 0x3f8257a0d0c57fd3, 0x3f83f44e460923c5},
		{0x3f6333a3f16156b2, 0x3f69bc293b8d9fbb, 0x3f71bfc5fe268c07, 0x3f764b1049a438dc, 0x3f828d10494e52a2, 0x3f842cad5d1ae335},
	},
	3: {
		{0x3f6501af579bf338, 0x3f6af0464e98ea46, 0x3f71f47430a96b1d, 0x3f765ca344125397, 0x3f8307da14081fb9, 0x3f84845befbfebf0},
		{0x3f65051fcf7e2d01, 0x3f6a83a464ceb6b0, 0x3f71928f0e504fcf, 0x3f75fabe21b93849, 0x3f831c7ce3557a60, 0x3f847d3a934ed1d0},
		{0x3f64e76db7e965de, 0x3f6acd0ae02dd2a1, 0x3f71a4423f14bdd3, 0x3f760ab9168c8969, 0x3f8323d3efabc9fa, 0x3f849b42911f21b3},
	},
}

var pairLoopClocks = map[int][][]uint64{
	1: {
		{0x3f3fd3041e72b1ce, 0x3f4421f5f40d8376, 0x3f504e2bdcfd9c77, 0x3f568b5cbff47732, 0x3f5ef436f407fa18, 0x3f608838733907b0},
	},
	2: {
		{0x3f6a20d30951e34c, 0x3f6dc6fad0c12321, 0x3f7180c663fcff99, 0x3f746e81bddac184, 0x3f7e80a95db1e1e9, 0x3f803a6fe870415e},
		{0x3f69bad1a29f7cb1, 0x3f6d6db996e50958, 0x3f71a85e836e091d, 0x3f7445a77f0a7727, 0x3f7dfa5c271d504c, 0x3f7fee929a4bf120},
	},
	3: {
		{0x3f6e3103023df2d3, 0x3f713485c3a3d936, 0x3f7432a7721f5734, 0x3f772ed077fd11b8, 0x3f81be233bc45152, 0x3f82a0d19c3f6649},
		{0x3f6ec20d00439cb6, 0x3f7109c855c4ad99, 0x3f741d2de33d26a7, 0x3f771b7a84d66906, 0x3f81b28a565aaa99, 0x3f82ab5355679088},
		{0x3f6e8d1e6114170b, 0x3f7154c6d6be9323, 0x3f7457bb52d1df03, 0x3f7753e458af9987, 0x3f81aee98cf6f3e7, 0x3f829f7f61b4fbc9},
	},
}

// TestPairLoopIterationRedistributeKeepsTranslations pins the one behaviour
// the fold changed: redistributing only the ITERATION decomposition of an
// unshared PairLoop re-inspects through the clear-stamp arm — the data
// distribution did not change, so the translations cached in the hash table
// are still valid (the paper's stamped-table reuse, and what a shared loop
// always did) — where the private guard used to reset the table.
func TestPairLoopIterationRedistributeKeepsTranslations(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3} {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			e := newPairEnv(p)
			e.check(t, p, "first run")

			// The same owners again: every rank re-hashes exactly the
			// references it already translated.
			table, translated := e.loop.shared.ht, e.loop.shared.ht.Translations()
			same := make([]int32, e.bonds.NLocal())
			for i := range same {
				same[i] = int32(p.Rank())
			}
			e.bonds.Redistribute(same)
			e.check(t, p, "identity redistribution")
			if e.loop.Inspections() != 2 {
				t.Errorf("%d ranks: inspections = %d after an iteration redistribution, want 2", nprocs, e.loop.Inspections())
			}
			if e.loop.shared.ht != table || e.loop.shared.ht.Translations() != translated {
				t.Errorf("%d ranks, rank %d: translations %d -> %d (same table: %v), want the cached ones kept",
					nprocs, p.Rank(), translated, e.loop.shared.ht.Translations(), e.loop.shared.ht == table)
			}

			// A real one: bonds change ranks, results must not.
			entries := e.loop.shared.ht.Len()
			e.bonds.Redistribute(spread(e.bonds, 5, p))
			e.check(t, p, "iteration redistribution")
			if e.loop.Inspections() != 3 {
				t.Errorf("%d ranks: inspections = %d after a second iteration redistribution, want 3", nprocs, e.loop.Inspections())
			}
			if e.loop.shared.ht.Len() < entries {
				t.Errorf("%d ranks, rank %d: table shrank from %d to %d entries: it was reset", nprocs, p.Rank(), entries, e.loop.shared.ht.Len())
			}
			e.check(t, p, "no change")
			if e.loop.Inspections() != 3 {
				t.Errorf("%d ranks: inspections = %d after an unchanged execute, want 3", nprocs, e.loop.Inspections())
			}
		})
	}
}
