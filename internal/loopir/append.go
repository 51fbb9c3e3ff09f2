package loopir

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/schedule"
)

// ReduceAppend is the compiled form of the REDUCE(APPEND, ...) intrinsic
// (§5.2.1, Figures 9 and 11) applied to a whole record batch: record i
// (width float64 values) is appended to the unordered list of destination
// row destRows[i] of the distribution dist.
//
// Because the intrinsic tells the compiler the movement is an unordered
// reduction, the generated data motion uses a light-weight schedule and
// scatter_append. The generated code then recomputes the new row sizes the
// way Figure 11's loops L2/L3 do — an irregular integer sum-reduction
// (hash, schedule, scatter-add) — because, unlike the hand-written version,
// it cannot get the counts out of the data-migration primitive. This extra
// communication is exactly why compiler-generated DSMC trails the manual
// parallelization in Table 7.
//
// Returns the records received by this processor (its destination rows'
// new contents, in arrival order) and the new size of each owned row.
// Collective.
func ReduceAppend(p *comm.Proc, dist *core.Dist, destRows []int32, records []float64, width int) ([]float64, []int32) {
	if len(records) != len(destRows)*width {
		panic(fmt.Sprintf("loopir: %d values for %d records of width %d", len(records), len(destRows), width))
	}
	tt := dist.TT()

	// Data motion: REDUCE(APPEND) -> light-weight schedule + scatter_append.
	owners := make([]int32, len(destRows))
	for i, row := range destRows {
		owners[i] = tt.OwnerOf(int(row))
	}
	p.ComputeMem(len(destRows))
	ls := schedule.BuildLight(p, owners)
	recv := ls.MoveF64(p, owners, records, width)

	// Generated size recomputation (Figure 11, loops L2 and L3):
	// new_size(icell(i,j)) = new_size(icell(i,j)) + 1, an irregular
	// sum-reduction over the destination rows.
	ht := hashtab.New(p, tt)
	stamp := ht.NewStamp()
	loc := ht.Hash(destRows, stamp)
	sched := schedule.Build(p, ht, stamp, 0)
	cnt := make([]float64, ht.NLocal()+ht.NGhosts())
	for _, l := range loc {
		cnt[l]++
	}
	p.ComputeMem(len(loc))
	schedule.Scatter(p, sched, cnt, schedule.OpAdd)
	sizes := make([]int32, dist.NLocal())
	for i := range sizes {
		sizes[i] = int32(cnt[i])
	}
	p.ComputeMem(len(sizes))
	return recv, sizes
}

// ReduceAppendFused is the optimized lowering of REDUCE(APPEND, ...): the
// destination rows ride along with the records through the same
// light-weight schedule (one extra integer payload per peer), and the new
// row sizes are counted locally from the arriving rows — the counts come
// out of the data-migration step itself, as the hand-written DSMC does.
// This eliminates the hash-table build, schedule build and scatter-add the
// naive lowering pays every step to recompute sizes (the Table 7
// compiler-vs-hand gap).
//
// MoveI32 and MoveF64 through one light schedule deliver position-wise
// corresponding items, so arriving row i names the destination of arriving
// record i; the returned records and sizes are identical to ReduceAppend's.
// Collective.
func ReduceAppendFused(p *comm.Proc, dist *core.Dist, destRows []int32, records []float64, width int) ([]float64, []int32) {
	if len(records) != len(destRows)*width {
		panic(fmt.Sprintf("loopir: %d values for %d records of width %d", len(records), len(destRows), width))
	}
	tt := dist.TT()

	owners := make([]int32, len(destRows))
	for i, row := range destRows {
		owners[i] = tt.OwnerOf(int(row))
	}
	p.ComputeMem(len(destRows))
	ls := schedule.BuildLight(p, owners)
	recv := ls.MoveF64(p, owners, records, width)
	rows := ls.MoveI32(p, owners, destRows, 1)

	// Local size count: translate arriving global rows to owned offsets with
	// a locally built map (no communication).
	off := make(map[int32]int32, dist.NLocal())
	for i, g := range dist.Globals() {
		off[g] = int32(i)
	}
	sizes := make([]int32, dist.NLocal())
	for _, row := range rows {
		sizes[off[row]]++
	}
	p.ComputeMem(dist.NLocal() + len(rows))
	return recv, sizes
}
