package remap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
	"repro/internal/ttable"
)

// blockGlobals returns the globals rank r holds under BLOCK distribution.
func blockGlobals(p *comm.Proc, n int) []int32 {
	lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
	gs := make([]int32, hi-lo)
	for i := range gs {
		gs[i] = int32(lo + i)
	}
	return gs
}

func TestBlockMapRoundTrip(t *testing.T) {
	// Starting from BLOCK, assign random new owners; BlockMap must deliver
	// exactly the right slab on every rank.
	const n = 97
	const nprocs = 4
	rng := rand.New(rand.NewSource(8))
	newOwners := make([]int32, n)
	for i := range newOwners {
		newOwners[i] = int32(rng.Intn(nprocs))
	}
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = newOwners[g]
		}
		slab := BlockMap(p, gs, mine, n)
		lo, hi := partition.BlockRange(p.Rank(), n, nprocs)
		if len(slab) != hi-lo {
			t.Fatalf("slab length %d, want %d", len(slab), hi-lo)
		}
		for i := range slab {
			if slab[i] != newOwners[lo+i] {
				t.Errorf("rank %d slab[%d] = %d, want %d", p.Rank(), i, slab[i], newOwners[lo+i])
			}
		}
	})
}

func TestBlockMapFromIrregularSource(t *testing.T) {
	// The source distribution need not be BLOCK: hand each rank a strided
	// subset and verify the routed map array.
	const n = 40
	const nprocs = 4
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		var gs, owners []int32
		for g := p.Rank(); g < n; g += nprocs { // cyclic source
			gs = append(gs, int32(g))
			owners = append(owners, int32((g/10)%nprocs)) // new owner by decade
		}
		slab := BlockMap(p, gs, owners, n)
		lo, _ := partition.BlockRange(p.Rank(), n, nprocs)
		for i := range slab {
			want := int32(((lo + i) / 10) % nprocs)
			if slab[i] != want {
				t.Errorf("rank %d global %d owner %d, want %d", p.Rank(), lo+i, slab[i], want)
			}
		}
	})
}

func TestPlanMovesValuesToNewOwners(t *testing.T) {
	const n = 200
	const nprocs = 4
	rng := rand.New(rand.NewSource(12))
	newOwners := make([]int32, n)
	for i := range newOwners {
		newOwners[i] = int32(rng.Intn(nprocs))
	}
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = newOwners[g]
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)

		// Element g carries value 5g; after the move, each new owner must
		// hold value 5g at offset OffsetOf(g).
		old := make([]float64, len(gs))
		for i, g := range gs {
			old[i] = 5 * float64(g)
		}
		moved := pl.MoveF64(p, old, 1)
		if len(moved) != tt.NLocal(p.Rank()) {
			t.Fatalf("rank %d: moved length %d, want %d", p.Rank(), len(moved), tt.NLocal(p.Rank()))
		}
		for g := 0; g < n; g++ {
			if int(tt.OwnerOf(g)) == p.Rank() {
				if got := moved[tt.OffsetOf(g)]; got != 5*float64(g) {
					t.Errorf("rank %d global %d: got %v, want %v", p.Rank(), g, got, 5*float64(g))
				}
			}
		}
	})
}

func TestPlanMoveWideAndInt(t *testing.T) {
	const n = 60
	const nprocs = 3
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = int32((g * 7) % nprocs) // scramble
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)

		oldF := make([]float64, len(gs)*2)
		oldI := make([]int32, len(gs))
		for i, g := range gs {
			oldF[2*i] = float64(g)
			oldF[2*i+1] = float64(g) + 0.5
			oldI[i] = int32(g * 3)
		}
		movedF := pl.MoveF64(p, oldF, 2)
		movedI := pl.MoveI32(p, oldI, 1)
		for g := 0; g < n; g++ {
			if int(tt.OwnerOf(g)) == p.Rank() {
				off := int(tt.OffsetOf(g))
				if movedF[2*off] != float64(g) || movedF[2*off+1] != float64(g)+0.5 {
					t.Errorf("wide move wrong for global %d: %v %v", g, movedF[2*off], movedF[2*off+1])
				}
				if movedI[off] != int32(g*3) {
					t.Errorf("int move wrong for global %d: %v", g, movedI[off])
				}
			}
		}
	})
}

func TestPlanMoveCSR(t *testing.T) {
	// Element g owns the segment [g, g, ..., g] of length g%4.
	const n = 50
	const nprocs = 4
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = int32((g + 1) % nprocs)
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)

		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			for k := 0; k < int(g)%4; k++ {
				vals = append(vals, g)
			}
			ptr[i+1] = int32(len(vals))
		}
		newPtr, newVals := pl.MoveCSRInto(nil, nil, p, ptr, vals)
		if len(newPtr) != tt.NLocal(p.Rank())+1 {
			t.Fatalf("newPtr length %d", len(newPtr))
		}
		for g := 0; g < n; g++ {
			if int(tt.OwnerOf(g)) != p.Rank() {
				continue
			}
			off := tt.OffsetOf(g)
			seg := newVals[newPtr[off]:newPtr[off+1]]
			if len(seg) != g%4 {
				t.Errorf("global %d segment length %d, want %d", g, len(seg), g%4)
				continue
			}
			for _, v := range seg {
				if v != int32(g) {
					t.Errorf("global %d segment value %d", g, v)
				}
			}
		}
	})
}

func TestPlanMoveCSREmptyRows(t *testing.T) {
	// Every segment is empty: the moved structure must be all-empty rows of
	// the destination length, with no values traffic.
	const n = 40
	const nprocs = 4
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i, g := range gs {
			mine[i] = int32((g + 2) % nprocs)
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)
		ptr := make([]int32, len(gs)+1) // all zeros: every row empty
		newPtr, newVals := pl.MoveCSRInto(nil, nil, p, ptr, nil)
		if len(newPtr) != tt.NLocal(p.Rank())+1 {
			t.Fatalf("rank %d: newPtr length %d, want %d", p.Rank(), len(newPtr), tt.NLocal(p.Rank())+1)
		}
		for i, v := range newPtr {
			if v != 0 {
				t.Errorf("rank %d: newPtr[%d] = %d, want 0", p.Rank(), i, v)
			}
		}
		if len(newVals) != 0 {
			t.Errorf("rank %d: %d values materialized from empty rows", p.Rank(), len(newVals))
		}
	})
}

func TestPlanMoveCSRAllLocal(t *testing.T) {
	// Identity distribution: nothing moves, and the CSR comes back equal.
	const n = 30
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i := range mine {
			mine[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)
		if pl.MovedAway() != 0 {
			t.Fatalf("identity plan moves %d elements", pl.MovedAway())
		}
		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			for k := 0; k <= int(g)%3; k++ {
				vals = append(vals, g*10+int32(k))
			}
			ptr[i+1] = int32(len(vals))
		}
		newPtr, newVals := pl.MoveCSRInto(nil, nil, p, ptr, vals)
		for g := 0; g < n; g++ {
			if int(tt.OwnerOf(g)) != p.Rank() {
				continue
			}
			off := tt.OffsetOf(g)
			seg := newVals[newPtr[off]:newPtr[off+1]]
			src := int(g) - int(gs[0])
			want := vals[ptr[src]:ptr[src+1]]
			if len(seg) != len(want) {
				t.Fatalf("global %d: segment length %d, want %d", g, len(seg), len(want))
			}
			for k := range seg {
				if seg[k] != want[k] {
					t.Errorf("global %d: seg[%d] = %d, want %d", g, k, seg[k], want[k])
				}
			}
		}
	})
}

func TestPlanMoveCSRSingleRank(t *testing.T) {
	// Single-rank degenerate: the whole move is the keep path.
	const n = 9
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs)) // all owned by rank 0
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)
		ptr := []int32{0, 2, 2, 5, 5, 5, 6, 6, 8, 9}
		vals := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}
		newPtr, newVals := pl.MoveCSRInto(nil, nil, p, ptr, vals)
		for i := range ptr {
			if newPtr[i] != ptr[i] {
				t.Fatalf("newPtr[%d] = %d, want %d", i, newPtr[i], ptr[i])
			}
		}
		for i := range vals {
			if newVals[i] != vals[i] {
				t.Errorf("newVals[%d] = %d, want %d", i, newVals[i], vals[i])
			}
		}
	})
}

func TestPlanMoveCSRNilPtrOnEmptyRank(t *testing.T) {
	// Regression: a rank holding zero elements under the source distribution
	// naturally passes a nil CSR, which used to panic on make(..., -1).
	const n = 12
	const nprocs = 4
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		var gs []int32
		if p.Rank() != nprocs-1 {
			// Ranks 0..2 split the globals; the last rank starts empty.
			for g := p.Rank(); g < n; g += nprocs - 1 {
				gs = append(gs, int32(g))
			}
		}
		owners := make([]int32, len(gs))
		for i, g := range gs {
			owners[i] = g % nprocs // destination: CYCLIC over all ranks
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, owners, n))
		pl := NewPlan(p, gs, tt)
		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			vals = append(vals, g, g)
			ptr[i+1] = int32(len(vals))
		}
		if p.Rank() == nprocs-1 {
			ptr, vals = nil, nil // the empty rank's natural zero values
		}
		newPtr, newVals := pl.MoveCSRInto(nil, nil, p, ptr, vals)
		if len(newPtr) != tt.NLocal(p.Rank())+1 {
			t.Fatalf("rank %d: newPtr length %d, want %d", p.Rank(), len(newPtr), tt.NLocal(p.Rank())+1)
		}
		for g := 0; g < n; g++ {
			if int(tt.OwnerOf(g)) != p.Rank() {
				continue
			}
			off := tt.OffsetOf(g)
			seg := newVals[newPtr[off]:newPtr[off+1]]
			if len(seg) != 2 || seg[0] != int32(g) || seg[1] != int32(g) {
				t.Errorf("rank %d global %d: segment %v, want [%d %d]", p.Rank(), g, seg, g, g)
			}
		}
	})
}

func TestPlanIdentityWhenDistributionUnchanged(t *testing.T) {
	const n = 30
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		mine := make([]int32, len(gs))
		for i := range mine {
			mine[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
		pl := NewPlan(p, gs, tt)
		if pl.MovedAway() != 0 {
			t.Errorf("identity remap moved %d elements", pl.MovedAway())
		}
		old := make([]float64, len(gs))
		for i := range old {
			old[i] = float64(i)
		}
		moved := pl.MoveF64(p, old, 1)
		for i := range old {
			if moved[i] != old[i] {
				t.Errorf("identity remap changed element %d", i)
			}
		}
	})
}

func TestIterationOwnersOwnerComputes(t *testing.T) {
	const n = 24
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		slab := make([]int32, n/3)
		for i := range slab {
			slab[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, slab)
		refs := [][]int32{{0, 23}, {10, 1}, {20}}
		got := IterationOwners(p, refs, tt, OwnerComputes)
		want := []int32{0, 1, 2} // owner of first ref: block of 8
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("iter %d owner %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestIterationOwnersAlmostOwnerComputes(t *testing.T) {
	const n = 24 // blocks of 8: 0-7 -> p0, 8-15 -> p1, 16-23 -> p2
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		slab := make([]int32, n/3)
		for i := range slab {
			slab[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, slab)
		refs := [][]int32{
			{0, 9, 10},   // majority on p1
			{1, 2, 17},   // majority on p0
			{3, 12, 20},  // three-way tie -> lowest rank 0
			{16, 17, 18}, // all p2
		}
		got := IterationOwners(p, refs, tt, AlmostOwnerComputes)
		want := []int32{1, 0, 0, 2}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("iter %d owner %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestIterationOwnersEmptyRefsPanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tt := ttable.Build(p, ttable.Replicated, []int32{0})
		defer func() {
			if recover() == nil {
				t.Error("empty refs did not panic")
			}
		}()
		IterationOwners(p, [][]int32{{}}, tt, OwnerComputes)
	})
}

func TestChainedRemaps(t *testing.T) {
	// Remap twice (block -> random -> random) and verify values still land
	// with their owners: exercises plans whose source is irregular.
	const n = 120
	const nprocs = 4
	rng := rand.New(rand.NewSource(33))
	own1 := make([]int32, n)
	own2 := make([]int32, n)
	for i := range own1 {
		own1[i] = int32(rng.Intn(nprocs))
		own2[i] = int32(rng.Intn(nprocs))
	}
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		data := make([]float64, len(gs))
		for i, g := range gs {
			data[i] = float64(g) * 1.5
		}
		for _, owners := range [][]int32{own1, own2} {
			mine := make([]int32, len(gs))
			for i, g := range gs {
				mine[i] = owners[g]
			}
			tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
			pl := NewPlan(p, gs, tt)
			data = pl.MoveF64(p, data, 1)
			gs = pl.MoveI32(p, gs, 1) // globals travel with their elements
		}
		for i, g := range gs {
			if own2[g] != int32(p.Rank()) {
				t.Errorf("global %d on rank %d, want %d", g, p.Rank(), own2[g])
			}
			if data[i] != float64(g)*1.5 {
				t.Errorf("global %d value %v", g, data[i])
			}
		}
	})
}

// Property: for any random ownership assignment, a remap plan delivers
// every element exactly once to its new owner with its payload intact.
func TestPropertyPlanPreservesElements(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		const nprocs = 4
		n := len(raw)
		ok := true
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			gs := blockGlobals(p, n)
			mine := make([]int32, len(gs))
			for i, g := range gs {
				mine[i] = int32(raw[g]) % nprocs
			}
			tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))
			pl := NewPlan(p, gs, tt)
			vals := make([]float64, len(gs))
			for i, g := range gs {
				vals[i] = float64(g) * 7
			}
			moved := pl.MoveF64(p, vals, 1)
			if len(moved) != tt.NLocal(p.Rank()) {
				ok = false
				return
			}
			for g := 0; g < n; g++ {
				if int(tt.OwnerOf(g)) == p.Rank() {
					if moved[tt.OffsetOf(g)] != float64(g)*7 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
