package ttable

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestDereferenceEmptyBatch exercises the collective contract: ranks with
// nothing to look up still participate with an empty request list, and the
// lookups of the other ranks must come back correct.
func TestDereferenceEmptyBatch(t *testing.T) {
	const nprocs = 4
	owners := randomOwners(2*defaultPageSize+5, nprocs, 17)
	want := refOffsets(owners, nprocs)
	for _, kind := range []Kind{Replicated, Distributed, Paged} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			tb := Build(p, kind, blockSlab(owners, p.Rank(), nprocs))
			var gs []int32
			if p.Rank() == 1 {
				gs = []int32{0, int32(len(owners) - 1), 3}
			}
			got := tb.Dereference(p, gs)
			if len(got) != len(gs) {
				t.Errorf("kind=%v rank %d: %d entries for %d requests", kind, p.Rank(), len(got), len(gs))
			}
			for k, g := range gs {
				if got[k] != want[g] {
					t.Errorf("kind=%v g=%d got %+v want %+v", kind, g, got[k], want[g])
				}
			}
		})
		// All ranks empty at once must also be a no-op, not a hang.
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			tb := Build(p, kind, blockSlab(owners, p.Rank(), nprocs))
			if got := tb.Dereference(p, nil); len(got) != 0 {
				t.Errorf("kind=%v: nil batch returned %d entries", kind, len(got))
			}
		})
	}
}

// TestDereferenceOutOfRangeAllKinds checks that an out-of-range global —
// past the end or negative — panics on every storage mode before any
// communication happens, so no peer is left waiting.
func TestDereferenceOutOfRangeAllKinds(t *testing.T) {
	const nprocs = 2
	owners := randomOwners(40, nprocs, 23)
	for _, kind := range []Kind{Replicated, Distributed, Paged} {
		for _, bad := range []int32{int32(len(owners)), -1} {
			comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				tb := Build(p, kind, blockSlab(owners, p.Rank(), nprocs))
				defer func() {
					if recover() == nil {
						t.Errorf("kind=%v: dereference of %d did not panic", kind, bad)
					}
				}()
				tb.Dereference(p, []int32{bad})
			})
		}
	}
}

// TestSingleElementPage builds a paged table whose last page holds exactly
// one entry (n = pageSize+1) and dereferences that entry from every rank,
// checking the short-page size bookkeeping.
func TestSingleElementPage(t *testing.T) {
	const nprocs = 2
	n := defaultPageSize + 1
	owners := randomOwners(n, nprocs, 41)
	want := refOffsets(owners, nprocs)
	last := int32(n - 1)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		tb := Build(p, Paged, blockSlab(owners, p.Rank(), nprocs))
		got := tb.Dereference(p, []int32{last, 0})
		if got[0] != want[last] {
			t.Errorf("rank %d: single-element page entry %+v, want %+v", p.Rank(), got[0], want[last])
		}
		if got[1] != want[0] {
			t.Errorf("rank %d: first entry %+v, want %+v", p.Rank(), got[1], want[0])
		}
	})
}
