package hashtab

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/ttable"
)

// buildBlockTable builds a replicated translation table for n elements
// distributed BLOCK over the processors.
func buildBlockTable(p *comm.Proc, n int) *ttable.Table {
	lo := p.Rank() * n / p.Size()
	hi := (p.Rank() + 1) * n / p.Size()
	slab := make([]int32, hi-lo)
	for i := range slab {
		slab[i] = int32(p.Rank())
	}
	return ttable.Build(p, ttable.Replicated, slab)
}

func TestHashLocalizesIndices(t *testing.T) {
	const n = 16
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, n) // rank 0 owns 0-7, rank 1 owns 8-15
		ht := New(p, tt)
		s := ht.NewStamp()
		loc := ht.Hash([]int32{0, 8, 0, 15}, s)
		if p.Rank() == 0 {
			// 0 is local (offset 0); 8 and 15 are ghosts.
			if loc[0] != 0 || loc[2] != 0 {
				t.Errorf("rank 0: local indices for g=0: %v", loc)
			}
			if loc[1] != 8 || loc[3] != 9 { // nLocal=8, ghost slots 0,1
				t.Errorf("rank 0: ghost indices %v, want [_, 8, _, 9]", loc)
			}
		} else {
			if loc[1] != 0 || loc[3] != 7 { // offsets within rank 1's block
				t.Errorf("rank 1: local indices %v", loc)
			}
			if loc[0] != 8 { // first ghost slot
				t.Errorf("rank 1: ghost index %v", loc[0])
			}
		}
		wantGhosts := 2 - p.Rank() // rank 0 fetches {8,15}; rank 1 fetches {0}
		if ht.NGhosts() != wantGhosts {
			t.Errorf("rank %d: NGhosts = %d, want %d", p.Rank(), ht.NGhosts(), wantGhosts)
		}
	})
}

func TestDuplicateRemoval(t *testing.T) {
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, 10)
		ht := New(p, tt)
		s := ht.NewStamp()
		// Reference the same off-processor global many times.
		var gs []int32
		for i := 0; i < 50; i++ {
			gs = append(gs, int32(9-9*p.Rank())) // off-proc for both ranks
		}
		loc := ht.Hash(gs, s)
		for _, l := range loc {
			if l != loc[0] {
				t.Errorf("duplicates mapped to different slots: %v", loc)
			}
		}
		if ht.NGhosts() != 1 {
			t.Errorf("NGhosts = %d, want 1 (duplicates removed)", ht.NGhosts())
		}
	})
}

func TestStampsAccumulateAndClear(t *testing.T) {
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, 10)
		ht := New(p, tt)
		a := ht.NewStamp()
		b := ht.NewStamp()
		ht.Hash([]int32{3, 7}, a)
		ht.Hash([]int32{7, 9}, b)
		e, ok := ht.Lookup(7)
		if !ok || e.Stamps != a|b {
			t.Errorf("entry 7 stamps = %v, want %v", e.Stamps, a|b)
		}
		ht.ClearStamp(a)
		e, _ = ht.Lookup(7)
		if e.Stamps != b {
			t.Errorf("after clear, entry 7 stamps = %v, want %v", e.Stamps, b)
		}
		e, ok = ht.Lookup(3)
		if !ok {
			t.Error("entry 3 evicted by ClearStamp; should remain cached")
		}
		if e.Stamps != 0 {
			t.Errorf("entry 3 stamps = %v, want 0", e.Stamps)
		}
	})
}

func TestIndexAnalysisReuse(t *testing.T) {
	// Re-hashing mostly unchanged indices must not re-translate them.
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, 100)
		ht := New(p, tt)
		s := ht.NewStamp()
		gs := make([]int32, 60)
		for i := range gs {
			gs[i] = int32(i)
		}
		ht.Hash(gs, s)
		before := ht.Translations()
		ht.ClearStamp(s)
		gs[0] = 99 // one new index, rest unchanged
		ht.Hash(gs, s)
		added := ht.Translations() - before
		if added != 1 {
			t.Errorf("re-hash translated %d indices, want 1", added)
		}
	})
}

func TestSelectIncludeExclude(t *testing.T) {
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, 20)
		ht := New(p, tt)
		a := ht.NewStamp()
		b := ht.NewStamp()
		ht.Hash([]int32{1, 2, 3}, a)
		ht.Hash([]int32{3, 4}, b)

		got := func(include, exclude Stamp) map[int32]bool {
			set := map[int32]bool{}
			for _, e := range ht.Select(include, exclude) {
				set[e.Global] = true
			}
			return set
		}
		ga := got(a, 0)
		if len(ga) != 3 || !ga[1] || !ga[2] || !ga[3] {
			t.Errorf("Select(a) = %v", ga)
		}
		gab := got(a|b, 0) // merged
		if len(gab) != 4 {
			t.Errorf("Select(a|b) = %v", gab)
		}
		ginc := got(b, a) // incremental: in b but not already in a
		if len(ginc) != 1 || !ginc[4] {
			t.Errorf("Select(b, exclude a) = %v", ginc)
		}
	})
}

func TestSelectEmptyIncludePanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ht := New(p, buildBlockTable(p, 4))
		defer func() {
			if recover() == nil {
				t.Error("Select(0, 0) did not panic")
			}
		}()
		ht.Select(0, 0)
	})
}

func TestGhostGlobalsOrder(t *testing.T) {
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		if p.Rank() != 0 {
			// Rank 1 participates in table build only.
			buildBlockTable(p, 10)
			return
		}
		tt := buildBlockTable(p, 10)
		ht := New(p, tt)
		s := ht.NewStamp()
		ht.Hash([]int32{9, 2, 7}, s) // rank 0 owns 0-4, so ghosts are 9 then 7
		gg := ht.GhostGlobals()
		if len(gg) != 2 || gg[0] != 9 || gg[1] != 7 {
			t.Errorf("GhostGlobals = %v, want [9 7]", gg)
		}
	})
}

func TestNewStampExhaustion(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ht := New(p, buildBlockTable(p, 4))
		for i := 0; i < 64; i++ {
			ht.NewStamp()
		}
		defer func() {
			if recover() == nil {
				t.Error("65th NewStamp did not panic")
			}
		}()
		ht.NewStamp()
	})
}

func TestHashIdempotentLocalIndices(t *testing.T) {
	// Property: hashing any sequence twice yields identical localized
	// indices, and distinct globals get distinct local slots.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		gs := make([]int32, 30)
		for i := range gs {
			gs[i] = int32(rng.Intn(40))
		}
		comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			tt := buildBlockTable(p, 40)
			ht := New(p, tt)
			s := ht.NewStamp()
			l1 := ht.Hash(gs, s)
			l2 := ht.Hash(gs, s)
			slotFor := map[int32]int32{}
			for i := range gs {
				if l1[i] != l2[i] {
					t.Fatalf("trial %d: non-idempotent localization at %d", trial, i)
				}
				if prev, ok := slotFor[gs[i]]; ok && prev != l1[i] {
					t.Fatalf("trial %d: global %d mapped to two slots", trial, gs[i])
				}
				slotFor[gs[i]] = l1[i]
			}
			// Distinct globals must not collide.
			rev := map[int32]int32{}
			for g, l := range slotFor {
				if other, ok := rev[l]; ok && other != g {
					t.Fatalf("trial %d: slot %d shared by globals %d and %d", trial, l, other, g)
				}
				rev[l] = g
			}
		})
	}
}

func TestHashWithDistributedTable(t *testing.T) {
	// Hash must work (collectively) when the translation table is not
	// replicated.
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		n := 64
		lo := p.Rank() * n / 4
		hi := (p.Rank() + 1) * n / 4
		slab := make([]int32, hi-lo)
		for i := range slab {
			slab[i] = int32((p.Rank() + 1) % 4) // owner is the next rank
		}
		tt := ttable.Build(p, ttable.Distributed, slab)
		ht := New(p, tt)
		s := ht.NewStamp()
		gs := []int32{0, 16, 32, 48}
		loc := ht.Hash(gs, s)
		// Element 16*k is owned by rank k+1 mod 4 with offset 0.
		for k, g := range gs {
			owner := (g/16 + 1) % 4
			if int(owner) == p.Rank() {
				if loc[k] != 0 {
					t.Errorf("rank %d: local element localized to %d", p.Rank(), loc[k])
				}
			} else if int(loc[k]) < ht.NLocal() {
				t.Errorf("rank %d: off-proc element localized below nLocal", p.Rank())
			}
		}
	})
}

func TestAdaptCyclesBoundedAllocs(t *testing.T) {
	// Regression: repeated adapt cycles (Reset + rehash of a similarly sized
	// index set) must reuse the table's map, entry storage and Hash scratch.
	// Steady-state allocations per cycle are the two result slices Hash and
	// Dereference return, not anything proportional to cycle count.
	const n, nrefs = 256, 512
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, n)
		ht := New(p, tt)
		rng := rand.New(rand.NewSource(int64(7 + p.Rank())))
		gs := make([]int32, nrefs)
		for i := range gs {
			gs[i] = int32(rng.Intn(n))
		}
		cycle := func() {
			ht.Reset(tt)
			ht.Hash(gs, ht.NewStamp())
		}
		for i := 0; i < 3; i++ { // warm up: grow map/entries/scratch to size
			cycle()
		}
		// Replicated table => Hash is purely local, so each rank can measure
		// independently without breaking collective lockstep.
		allocs := testing.AllocsPerRun(50, cycle)
		if allocs > 8 {
			t.Errorf("rank %d: %.1f allocs per adapt cycle, want <= 8", p.Rank(), allocs)
		}
	})
}

// refModel is a map-backed reference implementation of the table semantics
// the open-addressing index must preserve: first-appearance entry order,
// duplicate removal, ghost-slot assignment order, stamp accumulation.
type refModel struct {
	rank    int
	nLocal  int
	tt      *ttable.Table
	idx     map[int32]int
	entries []Entry
	nGhosts int
}

func newRefModel(p *comm.Proc, tt *ttable.Table) *refModel {
	return &refModel{rank: p.Rank(), nLocal: tt.NLocal(p.Rank()), tt: tt, idx: map[int32]int{}}
}

func (m *refModel) hash(globals []int32, stamp Stamp) []int32 {
	loc := make([]int32, len(globals))
	for i, g := range globals {
		k, ok := m.idx[g]
		if !ok {
			e := Entry{Global: g, Owner: m.tt.OwnerOf(int(g)), Offset: m.tt.OffsetOf(int(g))}
			if int(e.Owner) == m.rank {
				e.Local = e.Offset
			} else {
				e.Local = int32(m.nLocal + m.nGhosts)
				m.nGhosts++
			}
			k = len(m.entries)
			m.entries = append(m.entries, e)
			m.idx[g] = k
		}
		m.entries[k].Stamps |= stamp
		loc[i] = m.entries[k].Local
	}
	return loc
}

func (m *refModel) clearStamp(stamp Stamp) {
	for i := range m.entries {
		m.entries[i].Stamps &^= stamp
	}
}

func (m *refModel) sel(include, exclude Stamp) []Entry {
	var out []Entry
	for _, e := range m.entries {
		if e.Stamps&include != 0 && e.Stamps&exclude == 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestRandomizedEquivalenceWithMapModel drives the open-addressing table and
// the map-backed reference model through the same randomized workload —
// duplicated references, several stamps, periodic stamp clears — and checks
// localized indices, entry order, ghost-slot order, Select filtering and
// Lookup agree at every step. Replicated table, so ranks evolve
// independently without collectives.
func TestRandomizedEquivalenceWithMapModel(t *testing.T) {
	const n, rounds = 256, 40
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, n)
		ht := New(p, tt)
		model := newRefModel(p, tt)
		rng := rand.New(rand.NewSource(int64(1000 + p.Rank())))
		stamps := []Stamp{ht.NewStamp(), ht.NewStamp(), ht.NewStamp()}
		for round := 0; round < rounds; round++ {
			st := stamps[rng.Intn(len(stamps))]
			if rng.Intn(4) == 0 {
				ht.ClearStamp(st)
				model.clearStamp(st)
			}
			gs := make([]int32, 1+rng.Intn(64))
			for i := range gs {
				gs[i] = int32(rng.Intn(n))
			}
			got := ht.Hash(gs, st)
			want := model.hash(gs, st)
			for i := range gs {
				if got[i] != want[i] {
					t.Fatalf("rank %d round %d: Hash local[%d] (g=%d) = %d, want %d",
						p.Rank(), round, i, gs[i], got[i], want[i])
				}
			}
			if ht.Len() != len(model.entries) || ht.NGhosts() != model.nGhosts {
				t.Fatalf("rank %d round %d: len/ghosts = %d/%d, want %d/%d",
					p.Rank(), round, ht.Len(), ht.NGhosts(), len(model.entries), model.nGhosts)
			}
			inc := stamps[rng.Intn(len(stamps))]
			exc := Stamp(0)
			if rng.Intn(2) == 0 {
				exc = stamps[rng.Intn(len(stamps))] &^ inc
			}
			gotSel := ht.Select(inc, exc)
			wantSel := model.sel(inc, exc)
			if len(gotSel) != len(wantSel) {
				t.Fatalf("rank %d round %d: Select(%b,%b) returned %d entries, want %d",
					p.Rank(), round, inc, exc, len(gotSel), len(wantSel))
			}
			for i := range gotSel {
				if gotSel[i] != wantSel[i] {
					t.Fatalf("rank %d round %d: Select entry %d = %+v, want %+v",
						p.Rank(), round, i, gotSel[i], wantSel[i])
				}
			}
			for trial := 0; trial < 8; trial++ {
				g := int32(rng.Intn(n))
				gotE, gotOK := ht.Lookup(g)
				k, wantOK := model.idx[g]
				if gotOK != wantOK {
					t.Fatalf("rank %d round %d: Lookup(%d) present=%v, want %v", p.Rank(), round, g, gotOK, wantOK)
				}
				if gotOK && gotE != model.entries[k] {
					t.Fatalf("rank %d round %d: Lookup(%d) = %+v, want %+v", p.Rank(), round, g, gotE, model.entries[k])
				}
			}
		}
		// Ghost-slot order: slot s must hold the s-th distinct off-processor
		// global in first-appearance order, mirrored by the model's entries.
		gg := ht.GhostGlobals()
		var wantGG []int32
		for _, e := range model.entries {
			if int(e.Owner) != p.Rank() {
				wantGG = append(wantGG, e.Global)
			}
		}
		if len(gg) != len(wantGG) {
			t.Fatalf("rank %d: %d ghost globals, want %d", p.Rank(), len(gg), len(wantGG))
		}
		for i := range gg {
			if gg[i] != wantGG[i] {
				t.Fatalf("rank %d: ghost slot %d holds %d, want %d", p.Rank(), i, gg[i], wantGG[i])
			}
		}
	})
}

// TestHashIntoGrowsMidCallWithDuplicates hashes, in one call, a stream long
// enough to double the slot array several times and dense with in-stream
// duplicates, onto a table that already holds entries. Pass 1 parks entry
// references in dst while the slots move under it; every parked reference
// must still name the right entry afterwards.
func TestHashIntoGrowsMidCallWithDuplicates(t *testing.T) {
	const n = 4096
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, n)
		ht := New(p, tt)
		model := newRefModel(p, tt)
		s0, s1 := ht.NewStamp(), ht.NewStamp()
		rng := rand.New(rand.NewSource(int64(77 + p.Rank())))

		warm := []int32{5, 900, 5, 2000}
		ht.Hash(warm, s0)
		model.hash(warm, s0)
		before := len(ht.slots)

		// ~700 distinct globals (>> 3/4 of 16 slots) each seen about three
		// times, old entries mixed in, the first repeats arriving while the
		// global is still a pending unknown.
		gs := make([]int32, 2100)
		for i := range gs {
			gs[i] = int32(rng.Intn(700) * 5)
		}
		got := ht.HashInto(make([]int32, 0, len(gs)), gs, s1)
		if len(ht.slots) < 4*before {
			t.Fatalf("slot array %d -> %d: the call was meant to grow it mid-stream", before, len(ht.slots))
		}
		want := model.hash(gs, s1)
		for i := range gs {
			if got[i] != want[i] {
				t.Fatalf("rank %d: local[%d] (g=%d) = %d, want %d", p.Rank(), i, gs[i], got[i], want[i])
			}
		}
		if ht.Len() != len(model.entries) || ht.NGhosts() != model.nGhosts {
			t.Fatalf("rank %d: len/ghosts = %d/%d, want %d/%d", p.Rank(), ht.Len(), ht.NGhosts(), len(model.entries), model.nGhosts)
		}
		for i, e := range ht.Select(s0|s1, 0) {
			if e != model.entries[i] {
				t.Fatalf("rank %d: entry %d = %+v, want %+v", p.Rank(), i, e, model.entries[i])
			}
		}
	})
}

// TestHashIntoAliasingGlobals localizes an indirection array in place: dst is
// the globals slice itself.
func TestHashIntoAliasingGlobals(t *testing.T) {
	const n = 512
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := buildBlockTable(p, n)
		ht := New(p, tt)
		model := newRefModel(p, tt)
		st := ht.NewStamp()
		rng := rand.New(rand.NewSource(int64(5 + p.Rank())))
		for round := 0; round < 3; round++ {
			gs := make([]int32, 300)
			for i := range gs {
				gs[i] = int32(rng.Intn(n))
			}
			want := model.hash(gs, st)
			got := ht.HashInto(gs, gs, st)
			if &got[0] != &gs[0] {
				t.Fatalf("round %d: HashInto did not write into the offered array", round)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rank %d round %d: in-place local[%d] = %d, want %d", p.Rank(), round, i, got[i], want[i])
				}
			}
		}
	})
}
