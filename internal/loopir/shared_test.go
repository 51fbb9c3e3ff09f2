package loopir

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

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
			fusedRecv, fusedSizes := ReduceAppendFused(p, dec.Dist(), dest, recs, 2)
			// Width-2 records as a sorted multiset.
			records := func(v []float64) [][2]float64 {
				rs := make([][2]float64, len(v)/2)
				for i := range rs {
					rs[i] = [2]float64{v[2*i], v[2*i+1]}
				}
				slices.SortFunc(rs, func(a, b [2]float64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
				return rs
			}
			if !slices.Equal(records(naiveRecv), records(fusedRecv)) {
				t.Errorf("nprocs=%d rank=%d: fused path received another record multiset than the hash-table path", nprocs, p.Rank())
			}
			if !slices.Equal(naiveSizes, fusedSizes) {
				t.Errorf("nprocs=%d rank=%d: fused sizes %v, naive %v", nprocs, p.Rank(), fusedSizes, naiveSizes)
			}
		})
	}
}
