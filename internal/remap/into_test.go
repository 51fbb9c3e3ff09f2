package remap

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/recycle"
	"repro/internal/ttable"
)

// recycledChain remaps a float64 array, an int32 array and a CSR structure
// through `hops` random owner maps, twice in lockstep: once with a fresh
// plan and fresh result arrays at every hop, once with one plan rebuilt in
// place and every moved array ping-ponging between two buffers. Everything a
// hop retires on the recycled side is poisoned by the package itself under
// `go test` (staging, segment lengths) or here (the consumed arrays), so a
// stale read or an element a move did not write would split the two sides.
func recycledChain(t *testing.T, nprocs, n, hops int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	maps := make([][]int32, hops)
	for h := range maps {
		maps[h] = make([]int32, n)
		for i := range maps[h] {
			maps[h][i] = int32(rng.Intn(nprocs))
		}
	}
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		f := make([]float64, 3*len(gs))
		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			f[3*i], f[3*i+1], f[3*i+2] = float64(g), float64(g)*0.5, -float64(g)
			for k := int32(0); k < g%5; k++ {
				vals = append(vals, g*10+k)
			}
			ptr[i+1] = int32(len(vals))
		}
		// The recycled side starts from copies: its arrays are its own.
		rf, rgs, rptr, rvals := slices.Clone(f), slices.Clone(gs), slices.Clone(ptr), slices.Clone(vals)
		var plan *Plan
		var sf []float64
		var sgs, sptr, svals []int32
		for h, owners := range maps {
			mine := make([]int32, len(gs))
			for i, g := range gs {
				mine[i] = owners[g]
			}
			tt := ttable.Build(p, ttable.Replicated, BlockMap(p, gs, mine, n))

			fresh := NewPlan(p, gs, tt)
			f = fresh.MoveF64(p, f, 3)
			ptr, vals = fresh.MoveCSRInto(nil, nil, p, ptr, vals)
			gs = fresh.MoveI32(p, gs, 1)

			plan = NewPlanInto(plan, p, rgs, tt)
			rf, sf = plan.MoveF64Into(sf, p, rf, 3), rf
			newPtr, newVals := plan.MoveCSRInto(sptr, svals, p, rptr, rvals)
			rptr, rvals, sptr, svals = newPtr, newVals, rptr, rvals
			rgs, sgs = plan.MoveI32Into(sgs, p, rgs, 1), rgs
			recycle.PoisonF64(sf)
			for _, dead := range [][]int32{sgs, sptr, svals} {
				recycle.PoisonI32(dead)
			}

			if !slices.Equal(rf, f) || !slices.Equal(rgs, gs) || !slices.Equal(rptr, ptr) || !slices.Equal(rvals, vals) {
				t.Errorf("hop %d on %d ranks: rank %d's recycled arrays differ from the fresh ones", h, nprocs, p.Rank())
			}
			if plan.NewLen() != fresh.NewLen() || plan.MovedAway() != fresh.MovedAway() {
				t.Errorf("hop %d on %d ranks: rank %d's rebuilt plan reports %d/%d, a fresh one %d/%d",
					h, nprocs, p.Rank(), plan.NewLen(), plan.MovedAway(), fresh.NewLen(), fresh.MovedAway())
			}
		}
	})
}

func TestRecycledPlanChainMatchesFresh(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3, 4} {
		recycledChain(t, nprocs, 157, 6, int64(40+nprocs))
	}
	// Fewer elements than ranks: some ranks hold nothing on some hops.
	recycledChain(t, 4, 3, 5, 9)
}

// TestMoveIntoSteadyStateAllocs is the data-motion allocation discipline
// (see schedule's TestGatherScatterSteadyStateAllocs) for the remap moves:
// with the destinations fed back, MoveF64Into, MoveI32Into and MoveCSRInto
// allocate nothing once the staging and the send arena are warm.
func TestMoveIntoSteadyStateAllocs(t *testing.T) {
	const n, nprocs, runs = 600, 4, 50
	gotF, gotI, gotCSR := make([]float64, nprocs), make([]float64, nprocs), make([]float64, nprocs)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		gs := blockGlobals(p, n)
		owners := make([]int32, len(gs))
		for i, g := range gs {
			owners[i] = (g * 7) % nprocs
		}
		plan := NewPlan(p, gs, ttable.Build(p, ttable.Replicated, BlockMap(p, gs, owners, n)))
		f := make([]float64, 3*len(gs))
		ptr := make([]int32, len(gs)+1)
		var vals []int32
		for i, g := range gs {
			for k := int32(0); k < 1+g%6; k++ {
				vals = append(vals, g+k)
			}
			ptr[i+1] = int32(len(vals))
		}
		var outF []float64
		var outI, outPtr, outVals []int32
		moveF := func() { outF = plan.MoveF64Into(outF, p, f, 3) }
		moveI := func() { outI = plan.MoveI32Into(outI, p, gs, 1) }
		moveCSR := func() { outPtr, outVals = plan.MoveCSRInto(outPtr, outVals, p, ptr, vals) }
		for i := 0; i < 5; i++ {
			moveF()
			moveI()
			moveCSR()
		}
		// Every rank runs AllocsPerRun so the collectives stay in lockstep.
		gotF[p.Rank()] = testing.AllocsPerRun(runs, moveF)
		gotI[p.Rank()] = testing.AllocsPerRun(runs, moveI)
		gotCSR[p.Rank()] = testing.AllocsPerRun(runs, moveCSR)
	})
	for r := 0; r < nprocs; r++ {
		if gotF[r] != 0 || gotI[r] != 0 || gotCSR[r] != 0 {
			t.Errorf("rank %d: steady-state allocs/op MoveF64Into %.0f, MoveI32Into %.0f, MoveCSRInto %.0f, want 0",
				r, gotF[r], gotI[r], gotCSR[r])
		}
	}
}
