package loopir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/adapt"
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

// recycleMode is one way of running the cycle test's loops.
type recycleMode struct {
	name                string
	overlap, self, fuse bool
}

var recycleModes = []recycleMode{
	{name: "blocking"},
	{name: "overlap", overlap: true},
	{name: "self-sched", self: true},
	{name: "fused", fuse: true},
}

// recycleEnv is the Figure 10 program of the cycle tests: x read, f (and g,
// when fused) reduced, one CSR indirection array.
type recycleEnv struct {
	dec       *Decomposition
	x, f, g   *RealArray
	ind       *IndArray
	ptr, vals []int32 // what SetCSR was handed
	exec      func()
}

func newRecycleEnv(p *comm.Proc, mode recycleMode, n, w int, gptr, gvals []int32, x0 []float64) *recycleEnv {
	prog := NewProgram(p)
	e := &recycleEnv{dec: prog.Decomposition(n)}
	e.x, e.f = e.dec.AlignReal(w), e.dec.AlignReal(w)
	e.x.SetByGlobal(func(g int32, c []float64) { copy(c, x0[int(g)*w:]) })
	e.ind = e.dec.AlignIndCSR()
	e.ptr, e.vals = localizeCSR(p, n, gptr, gvals)
	e.ind.SetCSR(e.ptr, e.vals)
	loop := prog.NewSumLoop(e.ind, e.x, e.f, 40, figure10Body)
	loop.Overlap(mode.overlap)
	if mode.self {
		ctl := adapt.NewController()
		ctl.MinChunkUnits = 8
		loop.SelfSched(ctl)
	}
	e.exec = loop.Execute
	if mode.fuse {
		e.g = e.dec.AlignReal(w)
		second := prog.NewSumLoop(e.ind, e.x, e.g, 40, func(xi, xj, fi, fj []float64) {
			for c := range xi {
				fj[c] += xj[c] * 0.5
				fi[c] += xi[c] * 0.25
			}
		})
		gr := prog.NewSharedSched(e.dec)
		loop.Share(gr)
		second.Share(gr)
		run := []*SumLoop{loop, second}
		e.exec = func() { ExecuteFusedSum(run) }
	}
	return e
}

// reduced returns the reduction arrays of the mode.
func (e *recycleEnv) reduced() []*RealArray {
	if e.g != nil {
		return []*RealArray{e.f, e.g}
	}
	return []*RealArray{e.f}
}

// scatterByGlobal writes each rank's owned section of a into the shared
// global-order array (ranks own disjoint globals).
func scatterByGlobal(into []float64, a *RealArray) {
	w := a.Width()
	for i, g := range a.dec.Globals() {
		copy(into[int(g)*w:int(g+1)*w], a.Local()[i*w:])
	}
}

// TestRecycledStorageMatchesFreshAllocation is the poison + ownership test
// of the adaptive cycle. Under `go test` every buffer the cycle recycles —
// the spare real arrays, the spare CSR pair, the localized indirection
// array, the move staging, the partitioner columns — is poisoned (NaN /
// MinInt32, whole capacity) the moment its owner retires it, so one stale
// read or one element a reuse forgot to write ends up in the results. Those
// must stay bit-equal to the fresh-allocation behaviour: after every cycle
// the chained program's reduction arrays equal, bit for bit, the running sum
// of what a brand-new program — new arrays, new table, new schedule, moved
// once from BLOCK to that cycle's owner map — contributes. Blocking,
// split-phase, self-scheduled and fused execution, {1,2,3} ranks, memory
// and TCP transports.
//
// The same runs check ownership: the arrays handed to SetCSR (at the start,
// and again mid-run as an adaptation) are the caller's; loopir may read
// them for as long as they are the contents and must never write them.
func TestRecycledStorageMatchesFreshAllocation(t *testing.T) {
	const n, w, cycles = 150, 2, 5
	gptr, gvals := randCSR(n, 3, 23)
	rng := rand.New(rand.NewSource(29))
	x0 := make([]float64, n*w)
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	for _, kind := range []overlapTransport{overMem, overTCP} {
		for _, nprocs := range []int{1, 2, 3} {
			// Fresh-allocation reference, blocking: the contribution of one
			// execution under each cycle's owner map, in global order.
			contrib := make([][][]float64, cycles) // [cycle][array][global*w]
			for c := range contrib {
				contrib[c] = [][]float64{make([]float64, n*w), make([]float64, n*w)}
				overMem.run(t, nprocs, func(p *comm.Proc) {
					e := newRecycleEnv(p, recycleMode{fuse: true}, n, w, gptr, gvals, x0)
					e.dec.Redistribute(cycleOwners(c, e.dec.Globals(), nprocs))
					e.exec()
					for a, arr := range e.reduced() {
						scatterByGlobal(contrib[c][a], arr)
					}
				})
			}
			for _, mode := range recycleModes {
				label := fmt.Sprintf("%s on %d ranks over %s", mode.name, nprocs, map[overlapTransport]string{overMem: "mem", overTCP: "tcp"}[kind])
				got := [][]float64{make([]float64, n*w), make([]float64, n*w)}
				want := [][]float64{make([]float64, n*w), make([]float64, n*w)}
				kind.run(t, nprocs, func(p *comm.Proc) {
					e := newRecycleEnv(p, mode, n, w, gptr, gvals, x0)
					handed := [][]int32{e.ptr, e.vals}
					kept := [][]int32{slices.Clone(e.ptr), slices.Clone(e.vals)}
					for c := 0; c < cycles; c++ {
						stale := e.x.Local()
						e.dec.Redistribute(cycleOwners(c, e.dec.Globals(), nprocs))
						// The hook is live: the array the move consumed reads
						// NaN, so a holder of a dead Local() cannot miss it.
						for _, v := range stale {
							if !math.IsNaN(v) {
								t.Errorf("%s cycle %d: a Local() slice from before Redistribute still reads %v", label, c, v)
								break
							}
						}
						if c == 2 {
							// An adaptation: the host installs arrays of its own
							// (here, copies of the current contents).
							ptr, vals := e.ind.CSR()
							ptr, vals = slices.Clone(ptr), slices.Clone(vals)
							e.ind.SetCSR(ptr, vals)
							handed = append(handed, ptr, vals)
							kept = append(kept, slices.Clone(ptr), slices.Clone(vals))
						}
						e.exec()
						p.Barrier()
						for a, arr := range e.reduced() {
							scatterByGlobal(got[a], arr)
						}
						p.Barrier()
						if p.Rank() == 0 {
							for a := range e.reduced() {
								for i, v := range contrib[c][a] {
									want[a][i] += v
								}
								for i := range want[a] {
									if math.Float64bits(got[a][i]) != math.Float64bits(want[a][i]) {
										t.Errorf("%s cycle %d: reduction array %d at %d is %v, fresh allocation gives %v",
											label, c, a, i, got[a][i], want[a][i])
										break
									}
								}
							}
						}
						p.Barrier()
					}
					for i := range handed {
						if !slices.Equal(handed[i], kept[i]) {
							t.Errorf("%s: rank %d: loopir wrote an array it was handed through SetCSR", label, p.Rank())
						}
					}
				})
			}
		}
	}
}

// TestSetCSRHandingBackContents covers the host that mutates what CSR()
// returned in place and hands the same arrays back: they are already the
// contents, so nothing is retired (a retired array is poisoned and reused).
func TestSetCSRHandingBackContents(t *testing.T) {
	const n = 60
	gptr, gvals := randCSR(n, 2, 5)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i%7) + 0.5
	}
	want := seqSumLoop(n, gptr, gvals, x0)
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		e := newRecycleEnv(p, recycleMode{}, n, 1, gptr, gvals, x0)
		e.dec.Redistribute(cycleOwners(0, e.dec.Globals(), 2)) // contents are loopir's own now
		ptr, vals := e.ind.CSR()
		e.ind.SetCSR(ptr, vals)
		e.dec.Redistribute(cycleOwners(1, e.dec.Globals(), 2))
		e.exec()
		for i, g := range e.dec.Globals() {
			if math.Abs(e.f.Local()[i]-want[g]) > 1e-12 {
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
		e := newRecycleEnv(p, recycleMode{}, n, 1, gptr, gvals, x0)
		e.exec()
		for c := 0; c < warm+timed; c++ {
			e.dec.Redistribute(cycleOwners(c, e.dec.Globals(), nprocs))
			e.exec()
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
// table, globals, the block-map and plan exchanges, the test's own owner
// list — all O(elements). Nothing is left that scales with the indirection
// array: doubling its length does not move the bytes per cycle, and they
// stay well under the array itself.
func TestRedistributeSteadyStateAllocs(t *testing.T) {
	const n, rowsPer = 2000, 48
	for _, nprocs := range []int{1, 2, 3} {
		narrow := cycleBytes(nprocs, n, rowsPer)
		doubled := cycleBytes(nprocs, n, 2*rowsPer)
		if diff := math.Abs(doubled - narrow); diff > 0.02*narrow+1024 {
			t.Errorf("%d ranks: %.0f bytes per warm cycle at %d references per element but %.0f at %d — allocation scales with the indirection array",
				nprocs, narrow, rowsPer, doubled, 2*rowsPer)
		}
		if narrow > 256*n {
			t.Errorf("%d ranks: %.0f bytes per warm cycle for %d elements, want under 256 per element", nprocs, narrow, n)
		}
		t.Logf("%d ranks: %.0f bytes per warm cycle (indirection array %d bytes, %d doubled)", nprocs, narrow, 4*n*rowsPer, 8*n*rowsPer)
	}
}
