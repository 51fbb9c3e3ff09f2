package dsmc

import (
	"fmt"
	"sort"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// Phase keys in ProcResult.Phases.
const (
	PhaseMove       = "move"
	PhaseCollide    = "collide"
	PhasePartition  = "partition"
	PhaseRemap      = "remap"
	PhaseCheckpoint = "checkpoint"
)

// ProcResult is one rank's outcome of a parallel DSMC run. Checksum is
// global (identical on all ranks).
type ProcResult struct {
	Phases   map[string]float64
	Spans    []core.Span
	Checksum float64
	// MoveTime is the total virtual time of the MOVE phase (the paper's
	// "Reduce append" row in Table 7 for the light mover).
	MoveTime float64
	// RemapSteps lists the time steps after which cells were repartitioned
	// and molecules migrated (identical on all ranks: periodic remaps are
	// schedule-driven and policy remaps decide from AllReduce'd inputs).
	RemapSteps []int
}

// Run executes the parallel DSMC simulation on one SPMD rank. Collective.
func Run(p *comm.Proc, cfg Config) *ProcResult {
	res, _ := run(p, cfg)
	return res
}

// RunKeepMols is Run but also returns this rank's final molecule records
// (for correctness validation against the sequential reference).
func RunKeepMols(p *comm.Proc, cfg Config) []float64 {
	_, mols := run(p, cfg)
	return mols
}

func run(p *comm.Proc, cfg Config) (*ProcResult, []float64) {
	cfg.mustValidate()
	trig, _ := adapt.NewTrigger(cfg.Adapt, cfg.RemapEvery, cfg.AdaptVerify) // Validate vetted it
	rt := core.NewRuntime(p)
	timer := core.NewPhaseTimer(p)

	var cells *core.Dist
	var mols []float64
	var st stepState
	remap := func() { cells, mols = remapCells(p, &cfg, cells, mols, timer, &st) }
	startStep := 0
	if cfg.ResumeFrom != "" {
		cells, mols, startStep = resume(p, rt, &cfg, timer, &st)
	} else {
		cells = rt.BlockDist(cfg.NCells())
		// Each rank keeps the molecules whose cell it owns: count, then
		// fill a list sized like every later one (it joins the movers'
		// ping-pong as the first spare).
		all := GenMolecules(cfg)
		mine := func(i int) bool {
			return int(cells.TT().OwnerOf(CellOf(&cfg, all[i*recordWidth:]))) == p.Rank()
		}
		nMine := 0
		for i := 0; i < cfg.NMols; i++ {
			if mine(i) {
				nMine++
			}
		}
		mols = growF64(nil, nMine*recordWidth)[:0]
		for i := 0; i < cfg.NMols; i++ {
			if mine(i) {
				mols = append(mols, all[i*recordWidth:(i+1)*recordWidth]...)
			}
		}
		timer.Skip() // setup is not measured

		// A run that balances load partitions once before the first step as
		// well: the trigger's step 0.
		if trig.Active() && cfg.Partitioner != "block" {
			trig.Episode(p, 0, remap)
		}
	}

	trig.Start(p)
	for step := startStep + 1; step <= cfg.Steps; step++ {
		if cfg.CrashStep > 0 && step == cfg.CrashStep && p.Rank() == cfg.CrashRank {
			panic(fmt.Sprintf("dsmc: injected crash on rank %d at step %d", p.Rank(), step))
		}
		switch cfg.Mover {
		case MoverLight:
			mols = moveLight(p, &cfg, cells, mols, &st)
		case MoverRegular:
			mols = moveRegular(p, &cfg, cells, mols, &st)
		case MoverCompiler:
			mols = moveCompiler(p, &cfg, cells, mols, &st)
		}
		timer.Mark(PhaseMove)

		collideOwned(p, &cfg, cells, mols, step, &st)
		timer.Mark(PhaseCollide)

		if step < cfg.Steps && trig.Due(p, step) {
			trig.Episode(p, step, remap)
		}
		if cfg.CheckpointEvery > 0 && step%cfg.CheckpointEvery == 0 {
			saveCheckpoint(p, &cfg, cells, mols, step)
			timer.Mark(PhaseCheckpoint)
		}
		if afterStep != nil {
			afterStep(p, step, &st)
		}
	}

	res := &ProcResult{Phases: timer.Times, Spans: timer.Spans()}
	res.MoveTime = timer.Times[PhaseMove]
	res.RemapSteps = trig.Steps
	res.Checksum = p.AllReduceScalarF64(comm.OpSum, Checksum(mols))
	return res, mols
}

// moveLight is the MOVE phase with a light-weight schedule: advance every
// molecule, then scatter_append the records to the owners of their new
// cells. No index translation, no placement order. The schedule is rebuilt
// in place and the records land in the spare list, so a warm step allocates
// only the count exchange's by-reference buffer.
func moveLight(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) []float64 {
	n := len(mols) / recordWidth
	dest := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.Dt)
		dest[i] = cells.TT().OwnerOf(CellOf(cfg, rec))
	}
	p.ComputeFlops(moveFlopsPerMol * n)
	st.light = schedule.BuildLightInto(st.light, p, dest)
	out := growF64(st.spare, st.light.TotalRecv()*recordWidth)
	out = st.light.MoveF64Into(p, dest, mols, recordWidth, out)
	st.spare = mols
	return out
}

// moveCompiler is the MOVE phase as the Fortran 90D compiler generates it
// from the REDUCE(APPEND) intrinsic (Figure 11): the record movement is
// lowered to a light-weight schedule, but the generated code additionally
// recomputes the per-cell sizes with an irregular sum-reduction, paying
// extra communication the manually parallelized version avoids (Table 7).
func moveCompiler(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) []float64 {
	n := len(mols) / recordWidth
	destRows := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.Dt)
		destRows[i] = int32(CellOf(cfg, rec))
	}
	p.ComputeFlops(moveFlopsPerMol * n)
	recv, sizes := loopir.ReduceAppend(p, cells, destRows, mols, recordWidth)
	// The generated program stores new_size; sanity-check it against the
	// received records (the physics does not otherwise consume it).
	var total int32
	for _, s := range sizes {
		total += s
	}
	if int(total)*recordWidth != len(recv) {
		panic(fmt.Sprintf("dsmc: compiler new_size %d disagrees with %d received records", total, len(recv)/recordWidth))
	}
	return recv
}

// cellReq is one (cell, molecule count) slot-reservation request.
type cellReq struct {
	cell  int32
	count int32
}

// stepState is the runner's per-run working storage: the molecule lists,
// the slot array and every scratch buffer one time step needs, grown on
// demand and then reused, so a warm step allocates none of them. (The
// paper's Table 4 charges the regular mover's slot reservation and schedule
// every step by design; the modeled per-step cost is unchanged and the
// per-step schedule and its request/reply messages are still built afresh —
// only the Go allocator is taken off the application's own buffers.) One
// stepState belongs to one rank's run — ranks are goroutines, so none of
// this may live in a package-level variable.
//
// Everything here except reqPos is scratch with unspecified contents between
// steps: each step writes every element it later reads.
type stepState struct {
	// spare is the ping-pong partner of the live molecule list: a mover
	// writes the new list into it and the list it consumed becomes the next
	// spare. Lists that arrive from elsewhere (remapCells, resume) are
	// fresh and simply join the rotation.
	spare []float64
	// slots is the regular mover's slot array (owned cells x SlotCap records,
	// then one ghost slot per outbound molecule). It is never cleared: every
	// slot in [0, fills[row]) of an owned row is written by exactly one
	// molecule this step — by the local fill or by the OpReplace scatter —
	// every ghost slot by its one outbound molecule before the scatter packs
	// it, and nothing else is read.
	slots []float64
	fills []int32 // molecules placed in each owned cell this step

	// dest is the per-molecule destination: owner rank (light mover,
	// remapCells) or cell (regular and compiler movers).
	dest []int32
	// Slot reservation of the regular mover.
	molSeq   []int32
	owners   []int32
	offsets  []int32
	perOwner [][]cellReq
	// reqPos[c] is 1 + the index of cell c's request in its owner's list,
	// or 0 when c has no request this step; touched lists the cells set,
	// for an O(touched) end-of-step reset.
	reqPos  []int32
	touched []int32

	// light is the light mover's schedule, rebuilt in place every step so
	// its packing scratch survives.
	light *schedule.LightSchedule
	// members[row] lists the record offsets of the molecules in owned cell
	// row (collideOwned).
	members [][]int
}

// afterStep, when set, runs on every rank at the end of every time step.
// Tests use it to poison the scratch and to meter allocation; nil otherwise.
var afterStep func(p *comm.Proc, step int, st *stepState)

// sizedI32 returns scratch of exactly n elements backed by *buf, contents
// unspecified. Growth leaves headroom, so a slowly rising high-water mark
// (per-rank molecule counts drift) does not reallocate every step.
func sizedI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n, n+n/4)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF64 is sizedI32 for a float64 buffer held by value.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/4)
	}
	return buf[:n]
}

// moveRegular is the MOVE phase with a regular communication schedule, as
// contrasted in Table 4: every molecule is assigned a placement slot in a
// global new_cells array (cells x SlotCap), destination slots are reserved
// through the cells' owners, indices are translated, and a schedule with
// permutation lists is built and executed — all of it redone every step
// because the access pattern changes every step.
func moveRegular(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, st *stepState) []float64 {
	n := len(mols) / recordWidth
	tt := cells.TT()
	dest := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		rec := mols[i*recordWidth : (i+1)*recordWidth]
		advance(cfg, rec, cfg.Dt)
		dest[i] = int32(CellOf(cfg, rec))
	}
	p.ComputeFlops(moveFlopsPerMol * n)

	// Slot reservation: send (cell, count) pairs to each destination
	// cell's owner; owners assign bases in rank order and reply. The
	// cell-request index is a flat per-cell array (1+list index, 0 = not
	// yet requested) reset via the touched list, not a per-step map.
	if cap(st.perOwner) < p.Size() {
		st.perOwner = make([][]cellReq, p.Size())
	}
	perOwner := st.perOwner[:p.Size()]
	for r := range perOwner {
		perOwner[r] = perOwner[r][:0]
	}
	if len(st.reqPos) < cfg.NCells() {
		st.reqPos = make([]int32, cfg.NCells())
	}
	st.touched = st.touched[:0]
	molSeq := sizedI32(&st.molSeq, n)
	for i := 0; i < n; i++ {
		c := dest[i]
		o := tt.OwnerOf(int(c))
		if k := st.reqPos[c]; k > 0 {
			perOwner[o][k-1].count++
			molSeq[i] = perOwner[o][k-1].count - 1
		} else {
			st.reqPos[c] = int32(len(perOwner[o]) + 1)
			st.touched = append(st.touched, c)
			perOwner[o] = append(perOwner[o], cellReq{cell: c, count: 1})
			molSeq[i] = 0
		}
	}
	p.ComputeMem(2 * n)

	reqBufs := make([][]byte, p.Size())
	for r := range perOwner {
		flat := make([]int32, 2*len(perOwner[r]))
		for k, cr := range perOwner[r] {
			flat[2*k] = cr.cell
			flat[2*k+1] = cr.count
		}
		reqBufs[r] = comm.EncodeI32(flat)
	}
	incoming := p.AllToAll(reqBufs)

	// Owner side: assign bases in rank order; track fill totals.
	nOwnedCells := cells.NLocal()
	fills := sizedI32(&st.fills, nOwnedCells)
	clear(fills)
	replies := make([][]byte, p.Size())
	for src := 0; src < p.Size(); src++ {
		recs := comm.DecodeI32(incoming[src])
		base := make([]int32, len(recs)/2)
		for k := 0; k+1 < len(recs); k += 2 {
			c, cnt := recs[k], recs[k+1]
			if int(tt.OwnerOf(int(c))) != p.Rank() {
				panic(fmt.Sprintf("dsmc: slot request for cell %d not owned by rank %d", c, p.Rank()))
			}
			row := tt.OffsetOf(int(c))
			base[k/2] = fills[row]
			fills[row] += cnt
			if fills[row] > int32(cfg.SlotCap) {
				panic(fmt.Sprintf("dsmc: cell %d overflows SlotCap=%d (%d molecules)", c, cfg.SlotCap, fills[row]))
			}
		}
		p.ComputeMem(len(recs))
		replies[src] = comm.EncodeI32(base)
	}
	answered := p.AllToAll(replies)
	bases := make([][]int32, p.Size())
	for r := range answered {
		bases[r] = comm.DecodeI32(answered[r])
	}

	// Translate each molecule's slot to (owner, offset).
	owners := sizedI32(&st.owners, n)
	offsets := sizedI32(&st.offsets, n)
	for i := 0; i < n; i++ {
		c := dest[i]
		o := tt.OwnerOf(int(c))
		owners[i] = o
		k := st.reqPos[c] - 1
		offsets[i] = (tt.OffsetOf(int(c)))*int32(cfg.SlotCap) + bases[o][k] + molSeq[i]
	}
	for _, c := range st.touched {
		st.reqPos[c] = 0
	}
	p.ComputeMem(3 * n)

	// Build the regular schedule (with permutation lists) and scatter the
	// records into the slot array.
	nLocalSlots := nOwnedCells * cfg.SlotCap
	sched, loc := schedule.FromTranslated(p, nLocalSlots, owners, offsets)
	st.slots = growF64(st.slots, sched.MinLen()*recordWidth)
	buf := st.slots
	for i := 0; i < n; i++ {
		copy(buf[int(loc[i])*recordWidth:], mols[i*recordWidth:(i+1)*recordWidth])
	}
	p.ComputeMem(n * recordWidth)
	schedule.ScatterW(p, sched, buf, recordWidth, schedule.OpReplace)

	// Compact the owned slots back into a molecule list (the placement-
	// order rearrangement cost regular schedules pay), into the spare list.
	total := 0
	for _, f := range fills {
		total += int(f)
	}
	out := growF64(st.spare, total*recordWidth)[:0]
	for row := 0; row < nOwnedCells; row++ {
		lo := row * cfg.SlotCap
		out = append(out, buf[lo*recordWidth:(lo+int(fills[row]))*recordWidth]...)
	}
	p.ComputeMem(nOwnedCells + len(out))
	st.spare = mols
	return out
}

// collideOwned buckets local molecules into owned-cell rows and runs the
// collision phase.
func collideOwned(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, step int, st *stepState) {
	tt := cells.TT()
	st.members = bucketByCell(cfg, mols, st.members, cells.NLocal(), func(c int) int {
		if int(tt.OwnerOf(c)) != p.Rank() {
			panic(fmt.Sprintf("dsmc: rank %d holds molecule of cell %d owned by %d", p.Rank(), c, tt.OwnerOf(c)))
		}
		return int(tt.OffsetOf(c))
	})
	for row, mm := range st.members {
		collideCell(cfg, mols, mm, int(cells.Globals()[row]), step)
	}
	n := len(mols) / recordWidth
	p.ComputeFlops(cfg.collideCost() * n)
	p.ComputeMem(collideMemPerMol * n)
}

// remapCells runs the load-balancing pipeline: weigh cells by their current
// molecule population, partition, rebuild the distribution, and migrate
// molecules to the new owners of their cells.
func remapCells(p *comm.Proc, cfg *Config, cells *core.Dist, mols []float64, timer *core.PhaseTimer, st *stepState) (*core.Dist, []float64) {
	// Cell weights: molecules per cell + 1.
	w := make([]float64, cells.NLocal())
	for i := range w {
		w[i] = 1
	}
	n := len(mols) / recordWidth
	tt := cells.TT()
	for i := 0; i < n; i++ {
		w[tt.OffsetOf(CellOf(cfg, mols[i*recordWidth:]))]++
	}
	p.ComputeMem(n)

	var owners []int32
	if cfg.Partitioner == "block" { // keep the block assignment
		owners = partition.BlockOwnersInto(nil, cells.Globals(), cells.N(), p.Size())
	} else {
		nc := cells.NLocal()
		geom := &partition.Geom{Dim: 3, X: make([]float64, nc), Y: make([]float64, nc), Z: make([]float64, nc), W: w}
		if cfg.NZ == 1 {
			geom.Dim = 2
		}
		for i, g := range cells.Globals() {
			geom.X[i], geom.Y[i], geom.Z[i] = CellCenter(cfg, int(g))
		}
		owners = partition.ByName(nil, p, cfg.Partitioner, geom)
	}
	p.Barrier()
	timer.Mark(PhasePartition)

	newCells, _ := cells.Repartition(owners)
	dest := sizedI32(&st.dest, n)
	for i := 0; i < n; i++ {
		dest[i] = newCells.TT().OwnerOf(CellOf(cfg, mols[i*recordWidth:]))
	}
	p.ComputeMem(n)
	ls := schedule.BuildLight(p, dest)
	newMols := ls.MoveF64(p, dest, mols, recordWidth)
	p.Barrier()
	timer.Mark(PhaseRemap)
	return newCells, newMols
}

// SortByID orders a molecule record slice by molecule id (for tests).
func SortByID(mols []float64) []float64 {
	n := len(mols) / recordWidth
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mols[idx[a]*recordWidth] < mols[idx[b]*recordWidth] })
	out := make([]float64, len(mols))
	for k, i := range idx {
		copy(out[k*recordWidth:], mols[i*recordWidth:(i+1)*recordWidth])
	}
	return out
}
