package schedule

import (
	"fmt"
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

// TestFromTranslatedMatchesHashedBuild: with duplicate-free references,
// FromTranslatedInto must transport exactly the same values as the hash-table
// route, and so must FromTranslatedInto rebuilding a schedule (and index
// slice) last built for a different, larger pattern.
func TestFromTranslatedMatchesHashedBuild(t *testing.T) {
	const n = 120
	const nprocs = 4
	spellings := map[string]func(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32){
		"nil storage": func(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32) {
			return FromTranslatedInto(nil, nil, p, nLocal, owners, offsets)
		},
		"FromTranslatedInto": func(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32) {
			wide := make([]int32, 3*len(owners))
			for k := range wide {
				wide[k] = int32((p.Rank() + 1 + k) % nprocs)
			}
			s, loc := FromTranslatedInto(nil, nil, p, 2*nLocal, wide, wide)
			return FromTranslatedInto(s, loc, p, nLocal, owners, offsets)
		},
	}
	for name, build := range spellings {
		t.Run(name, func(t *testing.T) { fromTranslatedMatchesHashedBuild(t, n, nprocs, build) })
	}
}

func fromTranslatedMatchesHashedBuild(t *testing.T, n, nprocs int, build func(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32)) {
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
		sched, loc := build(p, tt.NLocal(p.Rank()), owners, offsets)
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
				t.Errorf("rank %d ref %d: FromTranslatedInto and Build disagree", p.Rank(), k)
			}
		}
		if sched.TotalFetch() != sched2.TotalFetch() {
			t.Errorf("fetch counts differ: %d vs %d (refs are duplicate-free)",
				sched.TotalFetch(), sched2.TotalFetch())
		}
	})
}

func TestFromTranslatedDuplicatesFetchTwice(t *testing.T) {
	// FromTranslatedInto performs no duplicate removal: the same reference
	// twice costs two fetches (the software-caching ablation relies on
	// this).
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		slab := []int32{int32(p.Rank()), int32(p.Rank())}
		tt := ttable.Build(p, ttable.Replicated, slab)
		if p.Rank() == 0 {
			owners := []int32{1, 1}
			offsets := []int32{0, 0}
			sched, loc := FromTranslatedInto(nil, nil, p, tt.NLocal(0), owners, offsets)
			if sched.TotalFetch() != 2 {
				t.Errorf("TotalFetch = %d, want 2 (no dedup)", sched.TotalFetch())
			}
			if loc[0] == loc[1] {
				t.Error("duplicate references share a slot")
			}
			Gather(p, sched, make([]float64, sched.MinLen()))
		} else {
			sched, _ := FromTranslatedInto(nil, nil, p, tt.NLocal(1), nil, nil)
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
// TCP transport. A rebuild reuses the count exchange's lists, and the
// in-memory transport delivers raw payloads by reference: were those sends
// not staged through the arena, a rank that runs ahead would overwrite a
// count its peer has not decoded yet. The expected RecvCounts
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
				want[k] = BuildLight(p, backToBackDest(p.Rank(), nprocs, k)).recvCounts
			}
			var ls *LightSchedule
			for k := 0; k < rebuilds; k++ {
				dest := backToBackDest(p.Rank(), nprocs, k)
				ls = BuildLightInto(ls, p, dest)
				if !slices.Equal(ls.recvCounts, want[k]) {
					t.Errorf("%s: rank %d rebuild %d: RecvCounts %v, fresh BuildLight %v", name, p.Rank(), k, ls.recvCounts, want[k])
				}
				if got := lightTotalSend(ls) + int(ls.sendCounts[p.Rank()]); got != len(dest) {
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

// translatedLocal is how many elements rank owns in rebuild k of
// TestFromTranslatedIntoBackToBack.
func translatedLocal(rank, k int) int { return 4 + (rank*7+k*3)%13 }

// translatedRefs is rank's reference list for rebuild k of
// TestFromTranslatedIntoBackToBack: lengths, owners and offsets change with
// every rebuild and differ between ranks (duplicates included).
func translatedRefs(rank, size, k int) (owners, offsets []int32) {
	rng := propRng(uint64(7 + rank + 131*k))
	owners = make([]int32, rng.intn(40))
	offsets = make([]int32, len(owners))
	for i := range owners {
		o := rng.intn(size)
		owners[i] = int32(o)
		offsets[i] = int32(rng.intn(translatedLocal(o, k)))
	}
	return owners, offsets
}

// TestFromTranslatedIntoBackToBack rebuilds one schedule from translated
// references 200 times, gathering through each rebuild, with no barrier
// between them, on the in-memory and the TCP transport — the DSMC regular
// mover's per-step pattern. A rank that runs ahead starts its next rebuild
// while a peer is still serving the last one, so a request recycled too
// early, or a send list left over from the previous pattern, surfaces as a
// wrong value: owner o's element j holds k*1e6 + o*1e3 + j in rebuild k.
func TestFromTranslatedIntoBackToBack(t *testing.T) {
	const nprocs, rebuilds = 4, 200
	mesh, err := comm.NewTCPMesh(nprocs)
	if err != nil {
		t.Fatalf("NewTCPMesh(%d): %v", nprocs, err)
	}
	value := func(k, o, j int) float64 { return float64(k)*1e6 + float64(o)*1e3 + float64(j) }
	for name, tr := range map[string]comm.Transport{"mem": comm.NewMemTransport(nprocs), "tcp": mesh} {
		comm.RunTransport(nprocs, costmodel.Uniform(1e-9), tr, func(p *comm.Proc) {
			var s *Schedule
			var loc []int32
			for k := 0; k < rebuilds; k++ {
				nLocal := translatedLocal(p.Rank(), k)
				owners, offsets := translatedRefs(p.Rank(), nprocs, k)
				s, loc = FromTranslatedInto(s, loc, p, nLocal, owners, offsets)
				data := make([]float64, s.MinLen())
				for j := 0; j < nLocal; j++ {
					data[j] = value(k, p.Rank(), j)
				}
				Gather(p, s, data)
				for i := range owners {
					if got, want := data[loc[i]], value(k, int(owners[i]), int(offsets[i])); got != want {
						t.Errorf("%s: rank %d rebuild %d ref %d: got %v, want %v", name, p.Rank(), k, i, got, want)
					}
				}
				// A rank-dependent stall lets the others run ahead.
				if (k+p.Rank())%7 == 0 {
					runtime.Gosched()
				}
			}
		})
	}
}

// TestLightMoveIntoOwnItemsFirst runs MoveF64Into and MoveI32Into on a
// schedule rebuilt in place, at 1–3 ranks. The result must be
// scatter_append's order: the rank's own items first and in order, then each
// source's in order, by increasing rank distance. Once warm, the move must
// allocate nothing (the rebuild is TestGatherScatterSteadyStateAllocs'
// business), and the schedule must keep no packing row for its own rank:
// own items are packed straight into the result.
func TestLightMoveIntoOwnItemsFirst(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("MoveF64Into/p%d", nprocs), func(t *testing.T) {
			lightMoveIntoRow(t, nprocs, (*LightSchedule).MoveF64Into, func(ls *LightSchedule) [][]float64 { return ls.packF })
		})
		t.Run(fmt.Sprintf("MoveI32Into/p%d", nprocs), func(t *testing.T) {
			lightMoveIntoRow(t, nprocs, (*LightSchedule).moveI32Into, func(ls *LightSchedule) [][]int32 { return ls.packI })
		})
	}
}

func lightMoveIntoRow[T int32 | float64](t *testing.T, nprocs int,
	move func(ls *LightSchedule, p *comm.Proc, dest []int32, items []T, width int, out []T) []T,
	pack func(ls *LightSchedule) [][]T) {
	const n, width, warm, runs = 40, 3, 3, 50
	destOf := func(rank int) []int32 {
		rng := propRng(uint64(11 + rank))
		dest := make([]int32, n)
		for i := range dest {
			dest[i] = int32(rng.intn(nprocs))
		}
		return dest
	}
	val := func(rank, i, c int) T { return T(rank*1000 + i*width + c) }
	allocs := make([]float64, nprocs)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		me := p.Rank()
		dest := destOf(me)
		items := make([]T, 0, n*width)
		for i := 0; i < n; i++ {
			for c := 0; c < width; c++ {
				items = append(items, val(me, i, c))
			}
		}
		var want []T
		for k := 0; k < nprocs; k++ {
			src := (me - k + nprocs) % nprocs
			for i, to := range destOf(src) {
				for c := 0; c < width && int(to) == me; c++ {
					want = append(want, val(src, i, c))
				}
			}
		}
		var ls *LightSchedule
		var out []T
		for k := 0; k < warm; k++ {
			ls = BuildLightInto(ls, p, dest)
			out = move(ls, p, dest, items, width, out)
			if !slices.Equal(out, want) {
				t.Errorf("rank %d move %d: got %v, want own items first, then by rank distance: %v", me, k, out, want)
			}
		}
		allocs[me] = testing.AllocsPerRun(runs, func() { out = move(ls, p, dest, items, width, out) })
		if row := pack(ls)[me]; row != nil {
			t.Errorf("rank %d: the schedule keeps a packing row of capacity %d for its own rank", me, cap(row))
		}
	})
	for r, a := range allocs {
		if a != 0 {
			t.Errorf("rank %d: warm move allocates %.0f allocs/op, want 0", r, a)
		}
	}
}
