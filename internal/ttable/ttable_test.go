package ttable

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// blockSlab returns the slab of owners held by rank r when owners is
// distributed in near-equal contiguous blocks.
func blockSlab(owners []int32, r, nprocs int) []int32 {
	n := len(owners)
	lo := r * n / nprocs
	hi := (r + 1) * n / nprocs
	return owners[lo:hi]
}

// refOffsets computes the expected (owner, offset) pairs sequentially.
func refOffsets(owners []int32, nprocs int) []Entry {
	running := make([]int32, nprocs)
	out := make([]Entry, len(owners))
	for g, o := range owners {
		out[g] = Entry{Owner: o, Offset: running[o]}
		running[o]++
	}
	return out
}

func checkTable(t *testing.T, kind Kind, nprocs int, owners []int32) {
	t.Helper()
	want := refOffsets(owners, nprocs)
	m := costmodel.Uniform(1e-9)
	comm.Run(nprocs, m, func(p *comm.Proc) {
		tb := Build(p, kind, blockSlab(owners, p.Rank(), nprocs))
		if tb.N() != len(owners) {
			t.Errorf("kind=%v N=%d want %d", kind, tb.N(), len(owners))
		}
		// Each rank dereferences a deterministic pseudo-random subset.
		rng := rand.New(rand.NewSource(int64(p.Rank()*7919 + 13)))
		var gs []int32
		for i := 0; i < len(owners); i++ {
			if rng.Intn(2) == 0 {
				gs = append(gs, int32(i))
			}
		}
		got := tb.Dereference(p, gs)
		for k, g := range gs {
			if got[k] != want[g] {
				t.Errorf("kind=%v nprocs=%d g=%d got %+v want %+v", kind, nprocs, g, got[k], want[g])
			}
		}
		// Counts must match reference ownership.
		cnt := make([]int32, nprocs)
		for _, o := range owners {
			cnt[o]++
		}
		for r := 0; r < nprocs; r++ {
			if tb.NLocal(r) != int(cnt[r]) {
				t.Errorf("kind=%v NLocal(%d)=%d want %d", kind, r, tb.NLocal(r), cnt[r])
			}
		}
	})
}

func randomOwners(n, nprocs int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(rng.Intn(nprocs))
	}
	return owners
}

func TestAllKindsAgainstReference(t *testing.T) {
	for _, kind := range []Kind{Replicated, Distributed, Paged} {
		for _, nprocs := range []int{1, 2, 3, 4, 8} {
			owners := randomOwners(500, nprocs, int64(nprocs)*31)
			checkTable(t, kind, nprocs, owners)
		}
	}
}

func TestMultiPageTable(t *testing.T) {
	// More than one page per processor (n > pageSize * nprocs).
	owners := randomOwners(3*defaultPageSize+17, 4, 99)
	checkTable(t, Paged, 4, owners)
}

func TestPageCaching(t *testing.T) {
	owners := randomOwners(4*defaultPageSize, 4, 5)
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tb := Build(p, Paged, blockSlab(owners, p.Rank(), 4))
		// First dereference of a remote global should populate the cache.
		g := int32((p.Rank() + 1) % 4 * defaultPageSize) // page owned by another rank
		tb.Dereference(p, []int32{g})
		cached := len(tb.pageCache)
		if cached == 0 {
			t.Errorf("rank %d: no pages cached after remote dereference", p.Rank())
		}
		// Second dereference of the same page must not grow the cache.
		tb.Dereference(p, []int32{g + 1})
		if len(tb.pageCache) != cached {
			t.Errorf("rank %d: cache grew on repeat dereference", p.Rank())
		}
	})
}

func TestUnevenBlocks(t *testing.T) {
	// Map array slabs of different lengths per rank.
	owners := randomOwners(101, 3, 7)
	want := refOffsets(owners, 3)
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		var slab []int32
		switch p.Rank() {
		case 0:
			slab = owners[0:10]
		case 1:
			slab = owners[10:90]
		default:
			slab = owners[90:101]
		}
		tb := Build(p, Distributed, slab)
		gs := []int32{0, 9, 10, 55, 89, 90, 100}
		got := tb.Dereference(p, gs)
		for k, g := range gs {
			if got[k] != want[g] {
				t.Errorf("g=%d got %+v want %+v", g, got[k], want[g])
			}
		}
	})
}

func TestReplicatedAccessors(t *testing.T) {
	owners := []int32{1, 0, 1, 1, 0}
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		var slab []int32
		if p.Rank() == 0 {
			slab = owners[:2]
		} else {
			slab = owners[2:]
		}
		tb := Build(p, Replicated, slab)
		if tb.OwnerOf(2) != 1 {
			t.Errorf("OwnerOf(2) = %d", tb.OwnerOf(2))
		}
		if tb.OffsetOf(2) != 1 { // globals 0 and 2 belong to proc 1; 2 is second
			t.Errorf("OffsetOf(2) = %d", tb.OffsetOf(2))
		}
		if tb.OffsetOf(4) != 1 { // proc 0 owns globals 1 and 4
			t.Errorf("OffsetOf(4) = %d", tb.OffsetOf(4))
		}
	})
}

func TestOwnerOfPanicsOnDistributed(t *testing.T) {
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tb := Build(p, Distributed, []int32{0, 1})
		defer func() {
			if recover() == nil {
				t.Error("OwnerOf on distributed table did not panic")
			}
		}()
		tb.OwnerOf(0)
	})
}

func TestDereferenceOutOfRangePanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tb := Build(p, Replicated, []int32{0, 0})
		defer func() {
			if recover() == nil {
				t.Error("out-of-range dereference did not panic")
			}
		}()
		tb.Dereference(p, []int32{5})
	})
}

// Property: for any random ownership map, Build+Dereference agrees with the
// sequential reference on every kind.
func TestPropertyTableMatchesReference(t *testing.T) {
	f := func(raw []byte, kindSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		const nprocs = 4
		owners := make([]int32, len(raw))
		for i, b := range raw {
			owners[i] = int32(b) % nprocs
		}
		kind := []Kind{Replicated, Distributed, Paged}[kindSel%3]
		want := refOffsets(owners, nprocs)
		ok := true
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			tb := Build(p, kind, blockSlab(owners, p.Rank(), nprocs))
			gs := make([]int32, len(owners))
			for i := range gs {
				gs[i] = int32(i)
			}
			got := tb.Dereference(p, gs)
			for g := range gs {
				if got[g] != want[g] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Replicated.String() != "replicated" || Distributed.String() != "distributed" || Paged.String() != "paged" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind.String mismatch")
	}
}

// TestReplicatedBuildDecodesOnce: a Replicated Build decodes the gathered
// map straight into its owners and offsets. On one rank it allocates, per
// element, the block's offsets, the two all-gather frames and the two
// tables — 20 bytes — and no staging copy of the map besides.
func TestReplicatedBuildDecodesOnce(t *testing.T) {
	const n = 1 << 17
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		slab := make([]int32, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tt := Build(p, Replicated, slab)
		runtime.ReadMemStats(&after)
		if tt.N() != n {
			t.Fatalf("table of %d elements, want %d", tt.N(), n)
		}
		if perElem := float64(after.TotalAlloc-before.TotalAlloc) / n; perElem > 20.5 {
			t.Errorf("Build allocated %.2f bytes per element, want 20", perElem)
		}
	})
}
