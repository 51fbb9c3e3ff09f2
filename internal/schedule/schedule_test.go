package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/ttable"
)

// buildEnv builds a replicated translation table for n globals with the
// given owner map and returns it with a fresh hash table.
func buildEnv(p *comm.Proc, owners []int32) (*ttable.Table, *hashtab.Table) {
	n := len(owners)
	lo := p.Rank() * n / p.Size()
	hi := (p.Rank() + 1) * n / p.Size()
	tt := ttable.Build(p, ttable.Replicated, owners[lo:hi])
	return tt, hashtab.New(p, tt)
}

func TestIncrementalScheduleFetchesOnlyNew(t *testing.T) {
	const n = 100
	owners := make([]int32, n) // all on rank 0
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		_, ht := buildEnv(p, owners)
		a := ht.NewStamp()
		b := ht.NewStamp()
		if p.Rank() == 1 {
			ht.Hash([]int32{1, 2, 3, 4}, a)
			ht.Hash([]int32{3, 4, 5, 6}, b)
		}
		schedA := Build(p, ht, a, 0)
		incB := Build(p, ht, b, a)
		if p.Rank() == 1 {
			if schedA.TotalFetch() != 4 {
				t.Errorf("schedA fetches %d, want 4", schedA.TotalFetch())
			}
			if incB.TotalFetch() != 2 { // only 5 and 6 are new
				t.Errorf("incB fetches %d, want 2", incB.TotalFetch())
			}
		}
	})
}

func TestMergedScheduleEqualsUnion(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(3))
	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(rng.Intn(4))
	}
	refsA := make([]int32, 30)
	refsB := make([]int32, 30)
	for i := range refsA {
		refsA[i] = int32(rng.Intn(n))
		refsB[i] = int32(rng.Intn(n))
	}
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		_, ht := buildEnv(p, owners)
		a := ht.NewStamp()
		b := ht.NewStamp()
		ht.Hash(refsA, a)
		ht.Hash(refsB, b)
		merged := Build(p, ht, a|b, 0)
		// The union of distinct off-processor globals referenced.
		uniq := map[int32]bool{}
		for _, g := range append(append([]int32{}, refsA...), refsB...) {
			if int(owners[g]) != p.Rank() {
				uniq[g] = true
			}
		}
		if merged.TotalFetch() != len(uniq) {
			t.Errorf("rank %d: merged fetch %d, want %d", p.Rank(), merged.TotalFetch(), len(uniq))
		}
	})
}

func TestScheduleSizes(t *testing.T) {
	owners := []int32{0, 0, 1, 1}
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		_, ht := buildEnv(p, owners)
		st := ht.NewStamp()
		if p.Rank() == 0 {
			ht.Hash([]int32{2, 3}, st)
		} else {
			ht.Hash(nil, st)
		}
		sched := Build(p, ht, st, 0)
		if p.Rank() == 0 {
			if len(sched.RecvSlots(1)) != 2 || len(sched.sendOffs[1]) != 0 {
				t.Errorf("rank 0 sizes: fetch=%d send=%d", len(sched.RecvSlots(1)), len(sched.sendOffs[1]))
			}
		} else {
			if len(sched.sendOffs[0]) != 2 || len(sched.RecvSlots(0)) != 0 {
				t.Errorf("rank 1 sizes: send=%d fetch=%d", len(sched.sendOffs[0]), len(sched.RecvSlots(0)))
			}
		}
	})
}

// ---- Light-weight schedules ----

func TestScatterAppendPreservesMultiset(t *testing.T) {
	for _, nprocs := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(nprocs) * 11))
		// Each rank sends items tagged with (rank, seq) to random dests.
		perRank := 40
		dests := make([][]int32, nprocs)
		for r := range dests {
			dests[r] = make([]int32, perRank)
			for i := range dests[r] {
				dests[r][i] = int32(rng.Intn(nprocs))
			}
		}
		var mu sortedCollector
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			dest := dests[p.Rank()]
			items := make([]float64, perRank*2)
			for i := 0; i < perRank; i++ {
				items[2*i] = float64(p.Rank()*1000 + i)
				items[2*i+1] = float64(dest[i])
			}
			ls := BuildLight(p, dest)
			got := ls.MoveF64(p, dest, items, 2)
			if len(got) != ls.TotalRecv()*2 {
				t.Errorf("nprocs=%d rank=%d: got %d values, want %d", nprocs, p.Rank(), len(got), ls.TotalRecv()*2)
			}
			for i := 0; i*2 < len(got); i++ {
				if int32(got[2*i+1]) != int32(p.Rank()) {
					t.Errorf("nprocs=%d rank=%d received item destined to %v", nprocs, p.Rank(), got[2*i+1])
				}
				mu.add(got[2*i])
			}
		})
		// Every item sent must arrive exactly once.
		var want []float64
		for r := 0; r < nprocs; r++ {
			for i := 0; i < perRank; i++ {
				want = append(want, float64(r*1000+i))
			}
		}
		sort.Float64s(want)
		got := mu.sorted()
		if len(got) != len(want) {
			t.Fatalf("nprocs=%d: %d items arrived, want %d", nprocs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nprocs=%d: multiset differs at %d: got %v want %v", nprocs, i, got[i], want[i])
			}
		}
	}
}

// sortedCollector accumulates values from concurrent rank goroutines.
type sortedCollector struct {
	mu   sync.Mutex
	vals []float64
}

func (c *sortedCollector) add(v float64) {
	c.mu.Lock()
	c.vals = append(c.vals, v)
	c.mu.Unlock()
}

func (c *sortedCollector) sorted() []float64 {
	sort.Float64s(c.vals)
	return c.vals
}

func TestLightScheduleCounts(t *testing.T) {
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		// Rank r sends r+1 items to each other rank and keeps 2.
		var dest []int32
		for other := 0; other < 3; other++ {
			n := p.Rank() + 1
			if other == p.Rank() {
				n = 2
			}
			for i := 0; i < n; i++ {
				dest = append(dest, int32(other))
			}
		}
		ls := BuildLight(p, dest)
		wantRecv := 2 // own
		for other := 0; other < 3; other++ {
			if other != p.Rank() {
				wantRecv += other + 1
			}
		}
		if ls.TotalRecv() != wantRecv {
			t.Errorf("rank %d TotalRecv = %d, want %d", p.Rank(), ls.TotalRecv(), wantRecv)
		}
		if lightTotalSend(ls) != 2*(p.Rank()+1) {
			t.Errorf("rank %d TotalSend = %d, want %d", p.Rank(), lightTotalSend(ls), 2*(p.Rank()+1))
		}
	})
}

func TestLightweightCheaperThanRegular(t *testing.T) {
	// The headline claim behind Table 4: moving the same records with a
	// light-weight schedule costs less virtual time than building and using
	// a regular schedule with index translation and permutation lists.
	const n = 4000
	const nprocs = 4
	rng := rand.New(rand.NewSource(9))
	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(i * nprocs / n)
	}
	moves := make([]int32, n) // global destination slot per item, random
	for i := range moves {
		moves[i] = int32(rng.Intn(n))
	}
	regular := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		tt, ht := buildEnv(p, owners)
		lo := p.Rank() * n / nprocs
		hi := (p.Rank() + 1) * n / nprocs
		st := ht.NewStamp()
		loc := ht.Hash(moves[lo:hi], st)
		sched := Build(p, ht, st, 0)
		data := make([]float64, sched.MinLen())
		for k := range loc {
			data[loc[k]] = float64(lo + k)
		}
		Scatter(p, sched, data, OpReplace)
		_ = tt
	})
	light := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		lo := p.Rank() * n / nprocs
		hi := (p.Rank() + 1) * n / nprocs
		dest := make([]int32, hi-lo)
		for i := range dest {
			dest[i] = owners[moves[lo+i]]
		}
		ls := BuildLight(p, dest)
		items := make([]float64, hi-lo)
		ls.MoveF64(p, dest, items, 1)
	})
	if light.MaxClock() >= regular.MaxClock() {
		t.Errorf("light-weight (%.6fs) not cheaper than regular (%.6fs)", light.MaxClock(), regular.MaxClock())
	}
}

// TestRefusals: what the transport primitives refuse, each with the message
// it panics with. The tests after it hold named rows of the same table.
func TestRefusals(t *testing.T) { refuse(t) }

func TestGatherShortBufferPanics(t *testing.T) {
	refuse(t, "Gather/short buffer", "ScatterWMulti/short buffer")
}

func TestMultiValidation(t *testing.T) {
	refuse(t, "ScatterWMulti/short buffer", "GatherWMulti/mismatched lengths", "GatherWMulti/zero width", "GatherWMulti/no buffers")
}

func TestMotionInFlightPanic(t *testing.T) { refuse(t, "Start/motion in flight") }

func TestBuildLightBadDestPanics(t *testing.T) { refuse(t, "BuildLight/bad destination") }

func TestMoveI32LengthMismatchPanics(t *testing.T) { refuse(t, "MoveI32/length mismatch") }

func TestMoveF64LengthMismatchPanics(t *testing.T) { refuse(t, "MoveF64/length mismatch") }

func TestFromTranslatedMismatchedInputsPanic(t *testing.T) {
	refuse(t, "FromTranslatedInto/mismatched inputs")
}

// refuse runs the named rows of the refusal table (none named: every row).
func refuse(t *testing.T, names ...string) {
	ran := 0
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		_, ht := buildEnv(p, []int32{0, 0, 0, 0})
		st := ht.NewStamp()
		ht.Hash([]int32{1, 3}, st)
		sched := Build(p, ht, st, 0)
		data := make([]float64, sched.MinLen())
		ls := BuildLight(p, []int32{0, 0})
		for _, tc := range []struct {
			name string
			fn   func()
			want string
		}{
			{"Gather/short buffer", func() { Gather(p, sched, nil) }, "schedule: buffer of 0 elements too short, need 4 (width 1)"},
			{"ScatterWMulti/short buffer", func() { ScatterWMulti(p, sched, [][]float64{data}, []int{2}, OpAdd) }, "schedule: buffer of 4 elements too short, need 8 (width 2)"},
			{"GatherWMulti/mismatched lengths", func() { GatherWMulti(p, sched, [][]float64{data}, []int{1, 2}) }, "schedule: 1 buffers with 2 widths"},
			{"GatherWMulti/zero width", func() { GatherWMulti(p, sched, [][]float64{data}, []int{0}) }, "schedule: buffer 0 has width 0"},
			{"GatherWMulti/no buffers", func() { GatherWMulti(p, sched, nil, nil) }, "schedule: fused transport of zero buffers"},
			{"Start/motion in flight", func() {
				mo := GatherWStart(p, sched, data, 1)
				defer mo.Wait()
				ScatterWStart(p, sched, data, 1, OpAdd)
			}, "schedule: a motion is already in flight on this schedule"},
			{"BuildLight/bad destination", func() { BuildLight(p, []int32{5}) }, "schedule: append destination 5 out of range [0,1)"},
			{"MoveI32/length mismatch", func() { ls.MoveI32(p, []int32{0, 0}, make([]int32, 3), 2) }, "schedule: light move with 3 values for 2 items of width 2"},
			{"MoveF64/length mismatch", func() { ls.MoveF64(p, []int32{0}, make([]float64, 3), 2) }, "schedule: light move with 3 values for 1 items of width 2"},
			{"FromTranslatedInto/mismatched inputs", func() { FromTranslatedInto(nil, nil, p, 4, make([]int32, 3), make([]int32, 2)) }, "schedule: 3 owners but 2 offsets"},
		} {
			if names != nil && !slices.Contains(names, tc.name) {
				continue
			}
			ran++
			if got := panicMessage(tc.fn); !strings.HasPrefix(got, tc.want) {
				t.Errorf("%s: panicked with %q, want %q", tc.name, got, tc.want)
			}
		}
	})
	if names != nil && ran != len(names) {
		t.Errorf("%d of the rows %q are in the refusal table", ran, names)
	}
}

// panicMessage runs fn and returns the message it panicked with ("" if it
// returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// lightTotalSend returns the number of items leaving this processor under
// ls (destinations other than itself).
func lightTotalSend(ls *LightSchedule) int {
	n := 0
	for r, c := range ls.sendCounts {
		if r != ls.self {
			n += int(c)
		}
	}
	return n
}
