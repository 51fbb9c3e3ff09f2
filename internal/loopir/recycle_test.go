package loopir

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// cycleOwners is the owner map of adaptive cycle c for the elements a rank
// currently holds: two maps in alternation, so that after two cycles every
// recycled buffer has seen both layouts.
func cycleOwners(c int, globals []int32, nprocs int) []int32 {
	owners := make([]int32, len(globals))
	for i, g := range globals {
		if c%2 == 0 {
			owners[i] = (g / 7) % int32(nprocs)
		} else {
			owners[i] = (g*5 + 1) % int32(nprocs)
		}
	}
	return owners
}

// lone is the Figure 10 program of one SumLoop, width 1: x read, f
// reduced, one CSR indirection array, the list BLOCK-distributed.
type lone struct {
	dec  *Decomposition
	x, f *RealArray
	ind  *IndArray
	loop *SumLoop
}

func newLone(p *comm.Proc, n, flops int, gptr, gvals []int32, x0 []float64) *lone {
	prog := NewProgram(p)
	e := &lone{dec: prog.Decomposition(n)}
	e.x, e.f = e.dec.AlignReal(1), e.dec.AlignReal(1)
	e.x.SetByGlobal(func(g int32, c []float64) { c[0] = x0[g] })
	e.ind = e.dec.AlignIndCSR()
	e.ind.SetCSR(localizeCSR(p, n, gptr, gvals))
	e.loop = prog.NewSumLoop(e.ind, e.x, e.f, flops, figure10Body)
	return e
}

// TestSetCSRHandingBackContents covers the host that mutates what CSR()
// returned in place and hands the same arrays back: they are already the
// contents, so nothing is retired (a retired array is poisoned and reused).
func TestSetCSRHandingBackContents(t *testing.T) {
	in := newInstance(shape{selfFree: true}, -1)
	want := in.sequential(shape{selfFree: true}, 0, 0)
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		e := newLone(p, in.n, 40, in.ptr, in.jj[0], in.x0)
		e.dec.Redistribute(cycleOwners(0, e.dec.Globals(), 2)) // contents are loopir's own now
		ptr, vals := e.ind.CSR()
		e.ind.SetCSR(ptr, vals)
		e.dec.Redistribute(cycleOwners(1, e.dec.Globals(), 2))
		e.loop.Execute()
		for i, g := range e.dec.Globals() {
			if e.f.Local()[i] != want[g] {
				t.Errorf("rank %d global %d: got %v want %v", p.Rank(), g, e.f.Local()[i], want[g])
				break
			}
		}
	})
}

// cycleBytes returns the bytes one warm adaptive cycle (Redistribute +
// Inspect + Execute) allocates, all ranks together, for an indirection array
// of about rowsPer references per element: the median over several cycles,
// so that one stray power-of-two buffer of the send arena (first-fit, it
// occasionally misses) does not pass for a trend. Rank 0 reads the
// allocator's counter between two barriers, so every rank is parked at a
// cycle boundary when it is read.
func cycleBytes(nprocs, n, rowsPer int) float64 {
	const warm, timed = 2, 9
	gptr, gvals := randCSR(n, rowsPer, 41)
	x0 := make([]float64, n)
	marks := make([]uint64, 0, timed+1)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		e := newLone(p, n, 40, gptr, gvals, x0)
		e.loop.Execute()
		for c := 0; c < warm+timed; c++ {
			e.dec.Redistribute(cycleOwners(c, e.dec.Globals(), nprocs))
			e.loop.Execute()
			if c >= warm-1 {
				p.Barrier()
				if p.Rank() == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					marks = append(marks, ms.TotalAlloc)
				}
				p.Barrier()
			}
		}
	})
	per := make([]float64, timed)
	for i := range per {
		per[i] = float64(marks[i+1] - marks[i])
	}
	slices.Sort(per)
	return per[timed/2]
}

// TestRedistributeSteadyStateAllocs pins the allocation discipline of the
// adaptive cycle: after two warm cycles (one per owner map) a Redistribute +
// Inspect + Execute allocates only the new distribution — translation
// table, globals, the collectives' frames, the test's own owner list — all
// O(elements); the block map works in the runtime plan's storage and the
// table decodes its map in place. Nothing is left that scales with the
// indirection array: doubling its length does not move the bytes per cycle,
// and they stay well under the array itself (52 bytes per element at 3
// ranks, the most, when the bound was set).
func TestRedistributeSteadyStateAllocs(t *testing.T) {
	const n, rowsPer = 2000, 48
	for _, nprocs := range []int{1, 2, 3} {
		narrow := cycleBytes(nprocs, n, rowsPer)
		doubled := cycleBytes(nprocs, n, 2*rowsPer)
		if diff := math.Abs(doubled - narrow); diff > 0.02*narrow+1024 {
			t.Errorf("%d ranks: %.0f bytes per warm cycle at %d references per element but %.0f at %d — allocation scales with the indirection array",
				nprocs, narrow, rowsPer, doubled, 2*rowsPer)
		}
		if narrow > 64*n {
			t.Errorf("%d ranks: %.0f bytes per warm cycle for %d elements, want under 64 per element", nprocs, narrow, n)
		}
		t.Logf("%d ranks: %.0f bytes per warm cycle (indirection array %d bytes, %d doubled)", nprocs, narrow, 4*n*rowsPer, 8*n*rowsPer)
	}
}
