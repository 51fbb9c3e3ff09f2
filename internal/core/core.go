// Package core is the CHAOS runtime façade: it ties together the six
// phases of solving an adaptive irregular problem (paper Figure 4):
//
//	Phase A  data partitioning        -> internal/partition
//	Phase B  data remapping           -> Dist.Repartition + remap.Plan
//	Phase C  iteration partitioning   -> remap.IterationOwners
//	Phase D  iteration remapping      -> Dist.Repartition on the iteration space
//	Phase E  inspector                -> hashtab + schedule.Build
//	Phase F  executor                 -> schedule.Gather/Scatter/ScatterAppend
//
// The central type is Dist, one irregular distribution of an N-element
// index space: it knows which globals live on the calling processor (in
// local order) and carries the translation table describing the whole
// distribution. Repartition derives a new Dist from partitioner output and
// returns the remap.Plan that moves any conforming array.
//
// Phase F is allocation-free in steady state: schedules cache their
// pack/unpack staging, payload bytes recycle through the per-Proc send
// arena, and the codecs decode in place (see "Steady-state allocation
// discipline" in DESIGN.md). Executor loops can therefore run thousands
// of iterations per schedule build without heap churn.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/hashtab"
	"repro/internal/partition"
	"repro/internal/remap"
	"repro/internal/ttable"
)

// Runtime binds CHAOS state to one SPMD processor.
type Runtime struct {
	P *comm.Proc
	// TableKind selects translation-table storage (default Replicated, as
	// used for both applications in the paper).
	TableKind ttable.Kind
	// plan is the remap plan of the latest Repartition on this runtime,
	// rebuilt in place by the next one: the move staging and the plan's
	// index lists belong to the run, not to one repartition.
	plan *remap.Plan
}

// NewRuntime returns a runtime with replicated translation tables.
func NewRuntime(p *comm.Proc) *Runtime {
	return &Runtime{P: p, TableKind: ttable.Replicated}
}

// Dist is one distribution of an N-element global index space.
type Dist struct {
	rt      *Runtime
	tt      *ttable.Table
	globals []int32
}

// BlockDist returns the initial BLOCK distribution of n elements, the
// conventional starting point before the first irregular partitioning
// (cf. Figure 10: "Initially arrays are distributed in blocks").
func (rt *Runtime) BlockDist(n int) *Dist {
	lo, hi := partition.BlockRange(rt.P.Rank(), n, rt.P.Size())
	slab := make([]int32, hi-lo)
	globals := make([]int32, hi-lo)
	for i := range slab {
		slab[i] = int32(rt.P.Rank())
		globals[i] = int32(lo + i)
	}
	return &Dist{rt: rt, tt: ttable.Build(rt.P, rt.TableKind, slab), globals: globals}
}

// CyclicDist returns the CYCLIC distribution of n elements: element i on
// processor i mod P (the second standard Fortran D distribution, §5.1).
func (rt *Runtime) CyclicDist(n int) *Dist {
	lo, hi := partition.BlockRange(rt.P.Rank(), n, rt.P.Size())
	slab := make([]int32, hi-lo)
	for i := range slab {
		slab[i] = int32((lo + i) % rt.P.Size())
	}
	var globals []int32
	for g := rt.P.Rank(); g < n; g += rt.P.Size() {
		globals = append(globals, int32(g))
	}
	return &Dist{rt: rt, tt: ttable.Build(rt.P, rt.TableKind, slab), globals: globals}
}

// DistFromOwners builds a distribution directly from a full block map slab
// (advanced use; most callers use BlockDist + Repartition).
func (rt *Runtime) DistFromOwners(slab []int32, myGlobals []int32) *Dist {
	return &Dist{rt: rt, tt: ttable.Build(rt.P, rt.TableKind, slab), globals: myGlobals}
}

// DistFromGlobals rebuilds a distribution in which the calling processor
// owns exactly the given globals (which must be in ascending order, the
// local layout convention) out of an n-element index space. Checkpoint
// restore uses this to reconstruct the saved owner map from each rank's
// shard. Collective.
func (rt *Runtime) DistFromGlobals(globals []int32, n int) *Dist {
	for i := 1; i < len(globals); i++ {
		if globals[i] <= globals[i-1] {
			panic(fmt.Sprintf("core: DistFromGlobals needs ascending globals (got %d after %d)", globals[i], globals[i-1]))
		}
	}
	owners := make([]int32, len(globals))
	for i := range owners {
		owners[i] = int32(rt.P.Rank())
	}
	slab := remap.BlockMap(rt.P, globals, owners, n)
	return &Dist{rt: rt, tt: ttable.Build(rt.P, rt.TableKind, slab), globals: append([]int32(nil), globals...)}
}

// Runtime returns the owning runtime.
func (d *Dist) Runtime() *Runtime { return d.rt }

// TT returns the translation table describing this distribution.
func (d *Dist) TT() *ttable.Table { return d.tt }

// Globals returns the global indices of this processor's local elements, in
// local order (do not modify).
func (d *Dist) Globals() []int32 { return d.globals }

// NLocal returns the number of local elements.
func (d *Dist) NLocal() int { return len(d.globals) }

// N returns the global element count.
func (d *Dist) N() int { return d.tt.N() }

// Repartition implements phases A+B bookkeeping: given the new owner of
// each local element (typically partitioner output), it routes the map
// array to block homes, builds the new translation table, and returns the
// new distribution together with the remap plan that moves any array from
// the old layout to the new. The plan is rebuilt in place by the runtime's
// next Repartition (of any Dist), so move everything that follows this
// distribution before repartitioning again. Collective.
func (d *Dist) Repartition(newOwners []int32) (*Dist, *remap.Plan) {
	if len(newOwners) != len(d.globals) {
		panic(fmt.Sprintf("core: %d owners for %d local elements", len(newOwners), len(d.globals)))
	}
	slab := remap.BlockMap(d.rt.P, d.globals, newOwners, d.N())
	tt := ttable.Build(d.rt.P, d.rt.TableKind, slab)
	d.rt.plan = remap.NewPlanInto(d.rt.plan, d.rt.P, d.globals, tt)
	plan := d.rt.plan
	// The new Dist retains its globals: a fresh array, never a recycled one.
	newGlobals := plan.MoveI32(d.rt.P, d.globals, 1)
	return &Dist{rt: d.rt, tt: tt, globals: newGlobals}, plan
}

// NewHashTable returns a fresh inspector hash table bound to this
// distribution (phase E).
func (d *Dist) NewHashTable() *hashtab.Table { return d.NewHashTableInto(nil) }

// NewHashTableInto is NewHashTable reusing ht's storage (ht may be nil): an
// inspector that survives a repartition or a restore gets its table back
// empty and rebound to this distribution — every cached translation is
// stale — with the slot array and entry storage kept. Charges nothing.
func (d *Dist) NewHashTableInto(ht *hashtab.Table) *hashtab.Table {
	if ht == nil {
		return hashtab.New(d.rt.P, d.tt)
	}
	ht.Reset(d.tt)
	return ht
}

// Span is one timed interval on a rank's virtual timeline.
type Span struct {
	Phase      string
	Start, End float64
}

// PhaseTimer accumulates per-phase virtual time for the preprocessing-
// overhead breakdowns the paper reports (Tables 2 and 6), and records the
// raw span list for timeline rendering (internal/trace). Under
// comm.RunMeasured each Mark also charges the interval's real duration to
// the same phase name through Proc.ChargePhaseWall, so the modeled and
// measured breakdowns share keys; on modeled runs the wall side is a no-op.
// The timer is the only owner of the keys it charges: the intervals it
// charges tile the rank body, so its measured phases never add up to more
// than the rank's wall.
type PhaseTimer struct {
	p         *comm.Proc
	lastClock float64
	lastWall  float64
	Times     map[string]float64
	order     []string
	spans     []Span
}

// NewPhaseTimer starts a timer at the processor's current clock.
func NewPhaseTimer(p *comm.Proc) *PhaseTimer {
	return &PhaseTimer{
		p:         p,
		lastClock: p.Clock(),
		lastWall:  p.WallNow(),
		Times:     map[string]float64{},
	}
}

// Mark charges the virtual time since the previous Mark (or construction)
// to the named phase. Phases may repeat; time accumulates.
func (t *PhaseTimer) Mark(name string) {
	now := t.p.Clock()
	if _, seen := t.Times[name]; !seen {
		t.order = append(t.order, name)
	}
	t.Times[name] += now - t.lastClock
	t.spans = append(t.spans, Span{Phase: name, Start: t.lastClock, End: now})
	t.lastClock = now
	w := t.p.WallNow()
	t.p.ChargePhaseWall(name, w-t.lastWall)
	t.lastWall = w
}

// Skip discards the time since the previous Mark without charging it.
func (t *PhaseTimer) Skip() {
	t.lastClock = t.p.Clock()
	t.lastWall = t.p.WallNow()
}

// Phases returns the phase names in first-appearance order.
func (t *PhaseTimer) Phases() []string { return t.order }

// Spans returns the raw timed intervals in chronological order (do not
// modify).
func (t *PhaseTimer) Spans() []Span { return t.spans }
