package dsmc

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// scratch lists every scratch buffer of the step state by element type.
// reqPos is not scratch (it is all-zero between steps by contract), and
// the schedules' internal buffers are private to them.
func (st *stepState) scratch() (f64 [][]float64, i32 [][]int32, ints [][]int) {
	f64 = [][]float64{st.spare}
	i32 = [][]int32{st.dest, st.molSeq, st.owners, st.offsets, st.touched, st.rowStart, st.cursor, st.loc}
	for _, lists := range [][][]int32{st.perOwner, st.reqIn, st.base, st.bases} {
		i32 = append(i32, lists[:cap(lists)]...)
	}
	ints = st.members[:cap(st.members)]
	return f64, i32, ints
}

// poison overwrites every scratch buffer of the step state, over its whole
// capacity, with values no run could mistake for data: NaN records, huge
// negative indices.
func (st *stepState) poison() {
	f64, i32, ints := st.scratch()
	for _, b := range f64 {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	for _, b := range i32 {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.MinInt32
		}
	}
	for _, b := range ints {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.MinInt
		}
	}
}

// scratchCaps returns the capacity of every scratch buffer of the step
// state, in scratch's order.
func (st *stepState) scratchCaps() []int {
	f64, i32, ints := st.scratch()
	var caps []int
	for _, b := range f64 {
		caps = append(caps, cap(b))
	}
	for _, b := range i32 {
		caps = append(caps, cap(b))
	}
	for _, b := range ints {
		caps = append(caps, cap(b))
	}
	return caps
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
// bit. Remap "3" exercises the spare / remapCells hand-over.
func TestScratchPoison(t *testing.T) {
	poison := func(_ *comm.Proc, _ int, st *stepState) { st.poison() }
	for _, mover := range []Mover{MoverLight, MoverRegular, MoverCompiler} {
		for _, remap := range []string{"0", "3"} {
			cfg := smallConfig()
			cfg.Mover, cfg.Remap = mover, remap
			cfg.InitSlabFrac, cfg.Partitioner = 0.5, "rcb"
			want, _ := Reference(cfg)
			for _, nprocs := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s remap=%s on %d ranks", mover, remap, nprocs)
				withAfterStep(poison, func() {
					got, _ := gatherMols(t, nprocs, cfg)
					expectBitIdentical(t, label, SortByID(got), want)
				})
			}
		}
	}
}

// TestMoverRowsAreBuckets checks every mover's hand-off to the collision
// phase: at every step, the rows it returns are exactly what bucketByCell
// makes of the list it returns — the same records, row by row and in
// storage order — so collideOwned needs no bucketing of its own. The light
// mover builds its rows from the cells it computed while advancing plus the
// received records, the regular mover from its packed slot rows, the
// compiler mover by bucketing. Remapping runs (Remap "3") move cells
// between ranks, so the rows change shape.
func TestMoverRowsAreBuckets(t *testing.T) {
	for _, mover := range []Mover{MoverLight, MoverRegular, MoverCompiler} {
		for _, remap := range []string{"0", "3"} {
			cfg := smallConfig()
			cfg.Mover, cfg.Remap = mover, remap
			cfg.InitSlabFrac, cfg.Partitioner = 0.5, "rcb"
			for _, nprocs := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s remap=%s on %d ranks", mover, remap, nprocs)
				checked := make([]int, nprocs)
				hook := func(p *comm.Proc, step int, cells *core.Dist, mols []float64, rows [][]int) {
					checked[p.Rank()]++
					tt := cells.TT()
					want := bucketByCell(&cfg, mols, nil, cells.NLocal(), func(c int) int { return int(tt.OffsetOf(c)) })
					if len(rows) != len(want) {
						t.Errorf("%s: rank %d step %d: %d rows, want %d", label, p.Rank(), step, len(rows), len(want))
						return
					}
					for row := range want {
						if !slices.Equal(rows[row], want[row]) {
							t.Errorf("%s: rank %d step %d row %d (cell %d): mover rows %v, bucketByCell %v",
								label, p.Rank(), step, row, cells.Globals()[row], rows[row], want[row])
							return
						}
					}
				}
				func() {
					beforeCollide = hook
					defer func() { beforeCollide = nil }()
					comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { RunKeepMols(p, cfg) })
				}()
				for r, n := range checked {
					if n != cfg.Steps {
						t.Errorf("%s: rank %d checked %d steps, want %d", label, r, n, cfg.Steps)
					}
				}
			}
		}
	}
}

// TestBucketOwnedPanicsOnForeignCell feeds the bucketing of received records
// a record whose cell the other rank owns, after one record of this rank's
// (the light mover's kept section, which bucketOwned skips): it must panic,
// naming this rank, the cell and its owner.
func TestBucketOwnedPanicsOnForeignCell(t *testing.T) {
	cfg := smallConfig()
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		cells := core.NewRuntime(p).BlockDist(cfg.NCells())
		own := int(cells.Globals()[0])
		foreign := (own + cfg.NCells()/2) % cfg.NCells() // the other rank's first cell
		mols := make([]float64, 2*recordWidth)
		mols[1], mols[2], mols[3] = cellCenter(&cfg, own)
		mols[recordWidth+1], mols[recordWidth+2], mols[recordWidth+3] = cellCenter(&cfg, foreign)
		want := fmt.Sprintf("dsmc: rank %d holds molecule of cell %d owned by %d", p.Rank(), foreign, 1-p.Rank())
		got := func() (msg any) {
			defer func() { msg = recover() }()
			bucketOwned(p, &cfg, cells, mols, recordWidth, resetRows(nil, cells.NLocal()))
			return nil
		}()
		if got != want {
			t.Errorf("rank %d: bucketOwned panicked with %v, want %q", p.Rank(), got, want)
		}
	})
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
// step state, and each rank's scratch capacities at the end of the run.
// Rank 0 reads the allocator's counter between two barriers, so every rank
// is parked at a step boundary when it is read.
func stepBytes(nprocs, warm int, cfg Config) (float64, [][]int) {
	var from, to runtime.MemStats
	caps := make([][]int, nprocs)
	hook := func(p *comm.Proc, step int, st *stepState) {
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
		if step == cfg.Steps {
			caps[p.Rank()] = st.scratchCaps()
		}
	}
	withAfterStep(hook, func() {
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) { RunKeepMols(p, cfg) })
	})
	return float64(to.TotalAlloc-from.TotalAlloc) / float64(cfg.Steps-warm), caps
}

// TestStepSteadyStateAllocs pins the allocation discipline of a warm time
// step. Every mover's exchanges are typed and staged, and the step state
// keeps their per-peer lists, so what a warm step still allocates is the
// phase timer's bookkeeping and the occasional growth of lists whose
// lengths drift from step to step: both movers stay under 4 KB a step. The regular mover's schedule is rebuilt in place and its owners
// lay out packed rows, so nothing scales with SlotCap: doubling it moves
// neither the per-step bytes nor the capacity of any scratch buffer.
func TestStepSteadyStateAllocs(t *testing.T) {
	const warm = 3
	cfg := Default2D(16)
	cfg.NMols, cfg.Steps = 1024, warm+40
	const maxBytes = 4096
	for _, nprocs := range []int{1, 2, 3} {
		cfg.Mover = MoverLight
		if b, _ := stepBytes(nprocs, warm, cfg); b > maxBytes {
			t.Errorf("light mover on %d ranks allocates %.0f bytes per warm step, want at most %d", nprocs, b, maxBytes)
		}

		cfg.Mover = MoverRegular
		narrow, narrowCaps := stepBytes(nprocs, warm, cfg)
		wide := cfg
		wide.slotCap *= 2
		doubled, wideCaps := stepBytes(nprocs, warm, wide)
		if narrow > maxBytes {
			t.Errorf("regular mover on %d ranks allocates %.0f bytes per warm step, want at most %d", nprocs, narrow, maxBytes)
		}
		if diff := math.Abs(doubled - narrow); diff > 0.1*narrow+1024 {
			t.Errorf("regular mover on %d ranks: %.0f bytes per step at SlotCap %d but %.0f at %d — allocation scales with SlotCap",
				nprocs, narrow, cfg.slotCap, doubled, wide.slotCap)
		}
		for r := range narrowCaps {
			if !slices.Equal(narrowCaps[r], wideCaps[r]) {
				t.Errorf("regular mover on %d ranks, rank %d: scratch capacities %v at SlotCap %d but %v at %d",
					nprocs, r, narrowCaps[r], cfg.slotCap, wideCaps[r], wide.slotCap)
			}
		}
	}
}

// BenchmarkDSMCStep times one warm time step (move + collide) at 2 ranks:
// the dsmc-regular benchmark configuration per mover, and the
// dsmc-finegrain one (16x16 cells, 1024 molecules, light mover). B/op
// covers both ranks.
func BenchmarkDSMCStep(b *testing.B) {
	const nprocs, warm = 2, 3
	regular := Default2D(48)
	regular.NMols = 18432
	finegrain := Default2D(16)
	finegrain.NMols = 1024
	rows := []struct {
		name  string
		mover Mover
		cfg   Config
	}{
		{"regular", MoverRegular, regular},
		{"light", MoverLight, regular},
		{"finegrain", MoverLight, finegrain},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			cfg := row.cfg
			cfg.Steps, cfg.Mover = warm+b.N, row.mover
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
