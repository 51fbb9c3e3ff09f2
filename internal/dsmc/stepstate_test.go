package dsmc

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// poison overwrites every scratch buffer of the step state, over its whole
// capacity, with values no run could mistake for data: NaN records, huge
// negative indices. reqPos is not scratch (it is all-zero between steps by
// contract) and the light schedule's packing buffers are private to it.
func (st *stepState) poison() {
	for _, b := range [][]float64{st.spare, st.slots} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	for _, b := range [][]int32{st.fills, st.dest, st.molSeq, st.owners, st.offsets, st.touched} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.MinInt32
		}
	}
	for _, reqs := range st.perOwner[:cap(st.perOwner)] {
		reqs = reqs[:cap(reqs)]
		for i := range reqs {
			reqs[i] = cellReq{cell: math.MinInt32, count: math.MinInt32}
		}
	}
	for _, row := range st.members[:cap(st.members)] {
		row = row[:cap(row)]
		for i := range row {
			row[i] = math.MinInt
		}
	}
}

// withAfterStep runs body with the afterStep hook installed.
func withAfterStep(hook func(p *comm.Proc, step int, st *stepState), body func()) {
	afterStep = hook
	defer func() { afterStep = nil }()
	body()
}

// TestScratchPoison checks the step state's central claim — each step writes
// every scratch element it later reads, so nothing needs clearing and the
// ping-pong lists never alias the live one. Every scratch buffer is filled
// with NaN / garbage between steps; a single stale read would surface in the
// final records, which must still equal the sequential reference bit for
// bit. RemapEvery 3 exercises the spare / remapCells hand-over.
func TestScratchPoison(t *testing.T) {
	poison := func(_ *comm.Proc, _ int, st *stepState) { st.poison() }
	for _, mover := range []Mover{MoverLight, MoverRegular, MoverCompiler} {
		for _, remapEvery := range []int{0, 3} {
			cfg := smallConfig()
			cfg.Mover, cfg.RemapEvery = mover, remapEvery
			cfg.InitSlabFrac, cfg.Partitioner = 0.5, "rcb"
			want, _ := Reference(cfg)
			for _, nprocs := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s remap=%d on %d ranks", mover, remapEvery, nprocs)
				withAfterStep(poison, func() {
					got, _ := gatherMols(t, nprocs, cfg)
					expectBitIdentical(t, label, SortByID(got), want)
				})
			}
		}
	}
}

// TestScratchPoisonAcrossResume poisons the scratch on both sides of a
// checkpoint: the writer, then an exact and an elastic continuation (the
// latter enters through remapCells with an empty step state).
func TestScratchPoisonAcrossResume(t *testing.T) {
	poison := func(_ *comm.Proc, _ int, st *stepState) { st.poison() }
	for _, mover := range []Mover{MoverLight, MoverRegular} {
		cfg := skewedConfig()
		cfg.Mover = mover
		want, _ := Reference(cfg)
		withAfterStep(poison, func() {
			dir := writeCheckpointAt(t, 3, 4, cfg, t.TempDir())
			resumed := cfg
			resumed.ResumeFrom = dir
			for _, nprocs := range []int{3, 2} {
				got, _ := gatherMols(t, nprocs, resumed)
				expectBitIdentical(t, fmt.Sprintf("%s resumed on %d ranks", mover, nprocs), SortByID(got), want)
			}
		})
	}
}

// stepBytes runs cfg on nprocs ranks and returns the bytes allocated per
// time step (all ranks together) once the first `warm` steps have sized the
// step state. Rank 0 reads the allocator's counter between two barriers, so
// every rank is parked at a step boundary when it is read.
func stepBytes(nprocs, warm int, cfg Config) float64 {
	var from, to runtime.MemStats
	hook := func(p *comm.Proc, step int, _ *stepState) {
		if step != warm && step != cfg.Steps {
			return
		}
		p.Barrier()
		if p.Rank() == 0 {
			if step == warm {
				runtime.ReadMemStats(&from)
			} else {
				runtime.ReadMemStats(&to)
			}
		}
		p.Barrier()
	}
	withAfterStep(hook, func() {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { RunKeepMols(p, cfg) })
	})
	return float64(to.TotalAlloc-from.TotalAlloc) / float64(cfg.Steps-warm)
}

// TestStepSteadyStateAllocs pins the allocation discipline of a warm time
// step. The light mover allocates only what must stay fresh — the count
// exchange's by-reference buffer and the AllToAll result headers — well
// under 4 KB a step. The regular mover still allocates its request/reply
// messages and the per-step schedule (Table 4's point is that it is rebuilt),
// but nothing proportional to the slot array: doubling SlotCap must not
// move its per-step bytes, and they stay a small fraction of the slot
// array the mover used to allocate and clear every step.
func TestStepSteadyStateAllocs(t *testing.T) {
	const warm = 3
	cfg := Default2D(16)
	cfg.NMols, cfg.Steps = 1024, warm+40
	for _, nprocs := range []int{1, 2} {
		cfg.Mover = MoverLight
		if b := stepBytes(nprocs, warm, cfg); b > 4096 {
			t.Errorf("light mover on %d ranks allocates %.0f bytes per warm step, want under 4096", nprocs, b)
		}

		cfg.Mover = MoverRegular
		narrow := stepBytes(nprocs, warm, cfg)
		wide := cfg
		wide.SlotCap *= 2
		doubled := stepBytes(nprocs, warm, wide)
		slotArray := float64(cfg.NCells() * cfg.SlotCap * recordWidth * 8)
		if narrow > slotArray/4 {
			t.Errorf("regular mover on %d ranks allocates %.0f bytes per warm step; the slot array alone is %.0f", nprocs, narrow, slotArray)
		}
		if diff := math.Abs(doubled - narrow); diff > 0.1*narrow+1024 {
			t.Errorf("regular mover on %d ranks: %.0f bytes per step at SlotCap %d but %.0f at %d — allocation scales with the slot array",
				nprocs, narrow, cfg.SlotCap, doubled, wide.SlotCap)
		}
	}
}

// BenchmarkDSMCStep times one warm time step (move + collide) of the
// dsmc-regular benchmark configuration at 2 ranks, per mover. B/op covers
// both ranks.
func BenchmarkDSMCStep(b *testing.B) {
	const nprocs, warm = 2, 3
	for _, mover := range []Mover{MoverRegular, MoverLight} {
		b.Run(string(mover), func(b *testing.B) {
			cfg := Default2D(48)
			cfg.NMols, cfg.Steps, cfg.Mover = 18432, warm+b.N, mover
			b.ReportAllocs()
			hook := func(p *comm.Proc, step int, _ *stepState) {
				if step == warm {
					p.Barrier()
					if p.Rank() == 0 {
						b.ResetTimer()
					}
				}
			}
			withAfterStep(hook, func() {
				comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { RunKeepMols(p, cfg) })
			})
		})
	}
}

// BenchmarkDSMCReference times the sequential Reference at the dsmc-regular
// size (48x48 cells, 18432 molecules, 60 steps): advance, bucketing and
// collision on one goroutine, with none of the hand-off and parking that
// BenchmarkDSMCStep's unpinned 2-rank comm.Run includes.
func BenchmarkDSMCReference(b *testing.B) {
	cfg := Default2D(48)
	cfg.NMols, cfg.Steps = 18432, 60
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, referenceSink = Reference(cfg)
	}
}

// referenceSink keeps BenchmarkDSMCReference's result alive.
var referenceSink float64
