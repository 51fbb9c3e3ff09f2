package schedule

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/ttable"
)

func TestMoveI32AlignsWithMoveF64(t *testing.T) {
	// MoveI32 and MoveF64 with the same dest must deliver corresponding
	// records at the same positions, so a logical record may be split
	// across one int and one float payload (as the CHARMM bond move does).
	const nprocs = 4
	const perRank = 25
	rng := rand.New(rand.NewSource(31))
	dests := make([][]int32, nprocs)
	for r := range dests {
		dests[r] = make([]int32, perRank)
		for i := range dests[r] {
			dests[r][i] = int32(rng.Intn(nprocs))
		}
	}
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		dest := dests[p.Rank()]
		ints := make([]int32, 2*perRank)
		floats := make([]float64, perRank)
		for i := 0; i < perRank; i++ {
			id := int32(p.Rank()*1000 + i)
			ints[2*i] = id
			ints[2*i+1] = id * 3
			floats[i] = float64(id) * 0.5
		}
		ls := BuildLight(p, dest)
		gotI := ls.MoveI32(p, dest, ints, 2)
		gotF := ls.MoveF64(p, dest, floats, 1)
		if len(gotI) != 2*len(gotF) {
			t.Fatalf("rank %d: %d ints vs %d floats", p.Rank(), len(gotI), len(gotF))
		}
		for k := range gotF {
			id := gotI[2*k]
			if gotI[2*k+1] != id*3 {
				t.Errorf("rank %d record %d: int components misaligned", p.Rank(), k)
			}
			if gotF[k] != float64(id)*0.5 {
				t.Errorf("rank %d record %d: float payload %v for id %d", p.Rank(), k, gotF[k], id)
			}
		}
	})
}

func TestMoveI32LengthMismatchPanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ls := BuildLight(p, []int32{0, 0})
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		ls.MoveI32(p, []int32{0, 0}, make([]int32, 3), 2)
	})
}

func TestMoveF64LengthMismatchPanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ls := BuildLight(p, []int32{0})
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		ls.MoveF64(p, []int32{0}, make([]float64, 3), 2)
	})
}

func TestFromTranslatedMatchesHashedBuild(t *testing.T) {
	// With duplicate-free references, FromTranslated must transport exactly
	// the same values as the hash-table route.
	const n = 120
	const nprocs = 4
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		lo := p.Rank() * n / nprocs
		hi := (p.Rank() + 1) * n / nprocs
		slab := make([]int32, hi-lo)
		for i := range slab {
			slab[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, slab)

		// Distinct references: a strided sweep.
		refs := make([]int32, 30)
		for i := range refs {
			refs[i] = int32((i*4 + p.Rank()) % n)
		}
		ents := tt.Dereference(p, refs)
		owners := make([]int32, len(refs))
		offsets := make([]int32, len(refs))
		for k, e := range ents {
			owners[k] = e.Owner
			offsets[k] = e.Offset
		}
		sched, loc := FromTranslated(p, tt.NLocal(p.Rank()), owners, offsets)
		if sched.NProcs() != nprocs {
			t.Errorf("NProcs = %d", sched.NProcs())
		}
		data := make([]float64, sched.MinLen())
		for g := lo; g < hi; g++ {
			data[g-lo] = 1000 + float64(g)
		}
		Gather(p, sched, data)
		for k, g := range refs {
			if got := data[loc[k]]; got != 1000+float64(g) {
				t.Errorf("rank %d ref %d (g=%d): got %v", p.Rank(), k, g, got)
			}
		}

		// Compare against the hash-table route.
		ht := hashtab.New(p, tt)
		st := ht.NewStamp()
		loc2 := ht.Hash(refs, st)
		sched2 := Build(p, ht, st, 0)
		data2 := make([]float64, sched2.MinLen())
		for g := lo; g < hi; g++ {
			data2[g-lo] = 1000 + float64(g)
		}
		Gather(p, sched2, data2)
		for k := range refs {
			if data[loc[k]] != data2[loc2[k]] {
				t.Errorf("rank %d ref %d: FromTranslated and Build disagree", p.Rank(), k)
			}
		}
		if sched.TotalFetch() != sched2.TotalFetch() {
			t.Errorf("fetch counts differ: %d vs %d (refs are duplicate-free)",
				sched.TotalFetch(), sched2.TotalFetch())
		}
	})
}

func TestFromTranslatedMismatchedInputsPanic(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched owners/offsets did not panic")
			}
		}()
		FromTranslated(p, 4, make([]int32, 3), make([]int32, 2))
	})
}

func TestFromTranslatedDuplicatesFetchTwice(t *testing.T) {
	// FromTranslated performs no duplicate removal: the same reference
	// twice costs two fetches (the software-caching ablation relies on
	// this).
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		slab := []int32{int32(p.Rank()), int32(p.Rank())}
		tt := ttable.Build(p, ttable.Replicated, slab)
		if p.Rank() == 0 {
			owners := []int32{1, 1}
			offsets := []int32{0, 0}
			sched, loc := FromTranslated(p, tt.NLocal(0), owners, offsets)
			if sched.TotalFetch() != 2 {
				t.Errorf("TotalFetch = %d, want 2 (no dedup)", sched.TotalFetch())
			}
			if loc[0] == loc[1] {
				t.Error("duplicate references share a slot")
			}
			Gather(p, sched, make([]float64, sched.MinLen()))
		} else {
			sched, _ := FromTranslated(p, tt.NLocal(1), nil, nil)
			Gather(p, sched, make([]float64, sched.MinLen()))
		}
	})
}

// backToBackDest is rank's destination list for rebuild k of
// TestBuildLightIntoBackToBack: lengths and per-peer counts change with
// every rebuild and differ between ranks.
func backToBackDest(rank, size, k int) []int32 {
	rng := propRng(uint64(1 + rank + 31*k))
	dest := make([]int32, rng.intn(40))
	for i := range dest {
		dest[i] = int32(rng.intn(size))
	}
	return dest
}

// TestBuildLightIntoBackToBack rebuilds one light schedule 200 times with no
// barrier (and no other collective) between builds, on the in-memory and the
// TCP transport. The in-memory transport delivers raw payloads by reference:
// were a rebuild to recycle its count buffer, a rank that runs ahead would
// overwrite a count its peer has not decoded yet. The expected RecvCounts
// come from fresh BuildLight schedules built beforehand, so nothing
// synchronizes the ranks inside the loop under test.
func TestBuildLightIntoBackToBack(t *testing.T) {
	const nprocs, rebuilds = 4, 200
	mesh, err := comm.NewTCPMesh(nprocs)
	if err != nil {
		t.Fatalf("NewTCPMesh(%d): %v", nprocs, err)
	}
	for name, tr := range map[string]comm.Transport{"mem": comm.NewMemTransport(nprocs), "tcp": mesh} {
		comm.RunTransport(nprocs, costmodel.Uniform(1e-9), tr, func(p *comm.Proc) {
			want := make([][]int32, rebuilds)
			for k := range want {
				want[k] = BuildLight(p, backToBackDest(p.Rank(), nprocs, k)).RecvCounts
			}
			var ls *LightSchedule
			for k := 0; k < rebuilds; k++ {
				dest := backToBackDest(p.Rank(), nprocs, k)
				ls = BuildLightInto(ls, p, dest)
				if !slices.Equal(ls.RecvCounts, want[k]) {
					t.Errorf("%s: rank %d rebuild %d: RecvCounts %v, fresh BuildLight %v", name, p.Rank(), k, ls.RecvCounts, want[k])
				}
				if got := ls.TotalSend() + int(ls.SendCounts[p.Rank()]); got != len(dest) {
					t.Errorf("%s: rank %d rebuild %d: SendCounts cover %d items, want %d", name, p.Rank(), k, got, len(dest))
				}
				// A rank-dependent stall lets the others run ahead.
				if (k+p.Rank())%7 == 0 {
					runtime.Gosched()
				}
			}
		})
	}
}
