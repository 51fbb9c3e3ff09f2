package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
)

// allocEnv builds a symmetric gather/scatter workload: n globals spread
// round-robin over the ranks, with every rank referencing elements of every
// other rank, so each collective exchanges messages in both directions of
// every pair (the steady-state executor shape of the paper's Figure 4
// phase F).
func allocEnv(p *comm.Proc, n, nrefs int, seed int64) (*Schedule, []float64) {
	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(i % p.Size())
	}
	rng := rand.New(rand.NewSource(seed))
	refs := make([]int32, nrefs)
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	_, ht := buildEnv(p, owners)
	st := ht.NewStamp()
	ht.Hash(refs, st)
	sched := Build(p, ht, st, 0)
	data := make([]float64, sched.MinLen())
	for i := range data {
		data[i] = float64(p.Rank()*1000 + i)
	}
	return sched, data
}

// lightEnv builds a symmetric scatter_append workload: every rank sends a
// few items to every rank (including itself).
func lightEnv(p *comm.Proc, perPeer, width int) (*LightSchedule, []int32, []float64) {
	dest := make([]int32, perPeer*p.Size())
	for i := range dest {
		dest[i] = int32(i % p.Size())
	}
	items := make([]float64, len(dest)*width)
	for i := range items {
		items[i] = float64(p.Rank()) + float64(i)/16
	}
	return BuildLight(p, dest), dest, items
}

// TestGatherScatterSteadyStateAllocs checks the zero-allocation discipline:
// after the first iteration has warmed the staging buffers and the send
// arena, Gather + ScatterAdd and the light-weight scatter_append perform no
// heap allocations on the in-memory transport, and neither does the
// split-phase multi-array spelling of the same core. testing.AllocsPerRun
// truncates the per-run average toward zero, so a handful of stray runtime
// allocations (sudog refills etc.) across the 100 runs do not flake the
// test, while any per-op allocation shows up as >= 1.
func TestGatherScatterSteadyStateAllocs(t *testing.T) {
	const runs = 100
	nprocs := 4
	got := make([]float64, nprocs)
	gotLight := make([]float64, nprocs)
	gotMulti := make([]float64, nprocs)
	gotRebuild := make([]float64, nprocs)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		sched, data := allocEnv(p, 512, 1024, 7)
		ls, dest, items := lightEnv(p, 16, 3)
		var out []float64
		body := func() {
			Gather(p, sched, data)
			Scatter(p, sched, data, OpAdd)
		}
		datas := [][]float64{data, make([]float64, 3*len(data))}
		widths := []int{1, 3}
		multiBody := func() {
			GatherWMultiStart(p, sched, datas, widths).Wait()
			ScatterWMultiStart(p, sched, datas, widths, OpMax).Wait()
		}
		lightBody := func() {
			out = ls.MoveF64Into(p, dest, items, 3, out)
		}
		// The per-step spelling: rebuild the schedule in place, then move.
		var ls2 *LightSchedule
		var out2 []float64
		rebuildBody := func() {
			ls2 = BuildLightInto(ls2, p, dest)
			out2 = ls2.MoveF64Into(p, dest, items, 3, out2)
		}
		// Warm up staging buffers, arena and mailbox capacity.
		for i := 0; i < 5; i++ {
			body()
			lightBody()
			multiBody()
			rebuildBody()
		}
		// Every rank runs AllocsPerRun so the collectives stay in lockstep
		// (AllocsPerRun invokes the body runs+1 times on each rank).
		got[p.Rank()] = testing.AllocsPerRun(runs, body)
		gotLight[p.Rank()] = testing.AllocsPerRun(runs, lightBody)
		gotMulti[p.Rank()] = testing.AllocsPerRun(runs, multiBody)
		gotRebuild[p.Rank()] = testing.AllocsPerRun(runs, rebuildBody)
	})
	for r, a := range got {
		if a != 0 {
			t.Errorf("rank %d: Gather+ScatterAdd steady state allocates %.0f allocs/op, want 0", r, a)
		}
	}
	for r, a := range gotLight {
		if a != 0 {
			t.Errorf("rank %d: light ScatterAppend steady state allocates %.0f allocs/op, want 0", r, a)
		}
	}
	for r, a := range gotMulti {
		if a != 0 {
			t.Errorf("rank %d: MultiStart+Wait steady state allocates %.0f allocs/op, want 0", r, a)
		}
	}
	// A rebuild keeps exactly two allocations per rank, both owed to the
	// by-reference transport: the count buffer its receivers alias, and
	// AllToAll's result header. Nothing per item, nothing per peer. (The
	// allocation counter is process-wide and the ranks run in lockstep, so
	// each rank's reading covers all of them.)
	for r, a := range gotRebuild {
		if a > float64(2*nprocs) {
			t.Errorf("rank %d: BuildLightInto+MoveF64Into steady state allocates %.0f allocs/op across %d ranks, want at most 2 per rank", r, a, nprocs)
		}
	}
}

// benchDataMotion times one executor collective per iteration across a
// 4-rank in-memory run. Allocations are reported across all ranks (the
// testing package reads global memstats), so allocs/op is the whole
// machine's churn per collective, not one rank's.
func benchDataMotion(b *testing.B, body func(p *comm.Proc, sched *Schedule, data []float64)) {
	b.ReportAllocs()
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		sched, data := allocEnv(p, 512, 1024, 7)
		body(p, sched, data) // warm-up
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			body(p, sched, data)
		}
	})
}

func BenchmarkDataMotionGather(b *testing.B) {
	benchDataMotion(b, func(p *comm.Proc, sched *Schedule, data []float64) {
		Gather(p, sched, data)
	})
}

// BenchmarkDataMotionGatherStart is BenchmarkDataMotionGather through the
// split-phase spelling, waited at once.
func BenchmarkDataMotionGatherStart(b *testing.B) {
	benchDataMotion(b, func(p *comm.Proc, sched *Schedule, data []float64) {
		GatherWStart(p, sched, data, 1).Wait()
	})
}

func BenchmarkDataMotionGatherW3(b *testing.B) {
	b.ReportAllocs()
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		sched, _ := allocEnv(p, 512, 1024, 7)
		data := make([]float64, sched.MinLen()*3)
		GatherW(p, sched, data, 3)
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			GatherW(p, sched, data, 3)
		}
	})
}

func BenchmarkDataMotionScatterAdd(b *testing.B) {
	benchDataMotion(b, func(p *comm.Proc, sched *Schedule, data []float64) {
		Scatter(p, sched, data, OpAdd)
	})
}

func BenchmarkDataMotionScatterAppend(b *testing.B) {
	b.ReportAllocs()
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ls, dest, items := lightEnv(p, 64, 3)
		var out []float64
		out = ls.MoveF64Into(p, dest, items, 3, out) // warm-up
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			out = ls.MoveF64Into(p, dest, items, 3, out)
		}
	})
}

func BenchmarkDataMotionBuildLight(b *testing.B) {
	b.ReportAllocs()
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		dest := make([]int32, 256)
		for i := range dest {
			dest[i] = int32(i % p.Size())
		}
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			BuildLight(p, dest)
		}
	})
}

// TestInspectorLoopSteadyStateAllocs extends the zero-allocation discipline
// to the full adaptive inspector loop: ClearStamp + rehash (HashInto) +
// incremental-style rebuild (BuildInto) + SelectInto. With a replicated
// translation table and a warmed table, every cycle reuses the
// open-addressing index, the localized-index buffer, the schedule's CSR
// backing and the selection scratch, so steady state is 0 allocs/op.
func TestInspectorLoopSteadyStateAllocs(t *testing.T) {
	const runs = 100
	nprocs := 4
	got := make([]float64, nprocs)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		n, nrefs := 512, 1024
		owners := make([]int32, n)
		for i := range owners {
			owners[i] = int32(i % p.Size())
		}
		rng := rand.New(rand.NewSource(int64(11 + p.Rank())))
		refs := make([]int32, nrefs)
		for i := range refs {
			refs[i] = int32(rng.Intn(n))
		}
		_, ht := buildEnv(p, owners)
		st := ht.NewStamp()
		var loc []int32
		var sched *Schedule
		var sel []hashtab.Entry
		body := func() {
			ht.ClearStamp(st)
			loc = ht.HashInto(loc, refs, st)
			sched = BuildInto(sched, p, ht, st, 0)
			sel = ht.SelectInto(sel, st, 0)
		}
		// Warm up: first cycle populates the table, grows the index to its
		// steady-state size and sizes all schedule scratch.
		for i := 0; i < 5; i++ {
			body()
		}
		// Every rank runs AllocsPerRun so the collective BuildInto stays in
		// lockstep across ranks.
		got[p.Rank()] = testing.AllocsPerRun(runs, body)
		_ = loc
		_ = sel
	})
	for r, a := range got {
		if a != 0 {
			t.Errorf("rank %d: inspector loop steady state allocates %.0f allocs/op, want 0", r, a)
		}
	}
}
