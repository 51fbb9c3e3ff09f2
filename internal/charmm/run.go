package charmm

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/partition"
	"repro/internal/recycle"
	"repro/internal/remap"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

// Phase keys a run marks (comm.Report.Phases). Table 2 reports PhasePartition,
// PhaseNBList, PhaseRemap, PhaseSchedGen and PhaseSchedRegen; Table 6
// reports PhasePartition, PhaseRemap, inspector (PhaseSchedGen +
// PhaseSchedRegen) and PhaseExecutor.
const (
	PhasePartition  = "partition"
	phaseNBListInit = "nblist_init"
	PhaseNBList     = "nblist"
	phaseNBUpdate   = "nbupdate"
	PhaseRemap      = "remap"
	PhaseSchedGen   = "schedgen"
	PhaseSchedRegen = "schedregen"
	PhaseExecutor   = "executor"
	phaseCheckpoint = "checkpoint"
)

// ProcResult is one rank's outcome of a parallel CHARMM run. Checksum and
// NBEntries are global (identical on every rank); the rank's phase times
// are in the run's comm.Report.
type ProcResult struct {
	Checksum  float64
	NBEntries int64
	// RemapSteps lists the time steps at which atoms were repartitioned
	// (identical on all ranks).
	RemapSteps []int
}

// simState carries the distributed simulation between preprocessing stages.
type simState struct {
	atoms    *core.Dist
	pos, vel []float64 // 3-wide, owned atoms in local order
	ptr, jnb []int32   // non-bonded CSR (partner values are globals)
	nb       nbSearch  // list-build working storage, reused across rebuilds
	bondI    []int32   // local bonds, global endpoints
	bondJ    []int32
	bondLen  []float64

	// Repartition storage, reused across repartitions: the partitioner's
	// working storage, and what the last one moved pos, vel and the list
	// out of (the next one's destinations).
	part           partState
	posOld, velOld []float64
	ptrOld, jnbOld []int32

	ht           *hashtab.Table
	sBond, sNB   hashtab.Stamp
	locBI, locBJ []int32
	locJnb       []int32
	sched        *schedule.Schedule // merged
	schedB       *schedule.Schedule // per-loop (when !Merged)
	schedNB      *schedule.Schedule

	// Phase F's gather and force buffers (3 values per owned or ghost slot),
	// reused across steps; see stepBuffers.
	posBuf, frc []float64
}

// stepBuffers readies phase F's persistent buffers for one step: the gather
// buffer with the owned positions copied in (every ghost slot the force
// loops read is refilled by the step's gathers) and the force buffer cleared.
func (s *simState) stepBuffers() (posBuf, frc []float64) {
	n := 3 * (s.ht.NLocal() + s.ht.NGhosts())
	s.posBuf, s.frc = recycle.Sized(s.posBuf, n), recycle.Sized(s.frc, n)
	copy(s.posBuf, s.pos)
	clear(s.frc)
	return s.posBuf, s.frc
}

// Run executes the parallel CHARMM simulation on one SPMD rank. Collective:
// every rank of the communicator must call it with the same configuration.
func Run(p *comm.Proc, cfg Config) *ProcResult {
	res, _ := run(p, cfg)
	return res
}

// FinalState is one rank's final owned atom state, for validation.
type FinalState struct {
	globals  []int32
	pos, vel []float64 // 3-wide, local order
}

// RunKeepState is Run but also returns this rank's final owned atoms (for
// bit-exactness checks across checkpoint/restore).
func RunKeepState(p *comm.Proc, cfg Config) (*ProcResult, *FinalState) {
	res, s := run(p, cfg)
	return res, &FinalState{
		globals: append([]int32(nil), s.atoms.Globals()...),
		pos:     append([]float64(nil), s.pos...),
		vel:     append([]float64(nil), s.vel...),
	}
}

func run(p *comm.Proc, cfg Config) (*ProcResult, *simState) {
	trig := cfg.mustTrigger(false)
	rt := core.NewRuntime(p) // the replicated translation table, as the paper's CHARMM (§3.1)

	var s *simState
	startStep, remapCount := 0, 0
	if cfg.ResumeFrom != "" {
		s, startStep, remapCount = resume(p, rt, cfg)
	} else {
		s = setup(p, rt, cfg, trig)
	}

	trig.Start(p)
	for step := startStep + 1; step <= cfg.Steps; step++ {
		cfg.Crash("charmm", p.Rank(), step)
		if trig.Due(p, step) {
			trig.Episode(p, step, func() {
				remapEpisode(p, s, cfg, cfg.partitionerAt(remapCount), phaseNBUpdate, PhaseSchedRegen)
			})
			remapCount++
		} else if step%cfg.NBEvery == 0 {
			// Adaptive phase: the non-bonded list changes; index analysis
			// for unchanged indices is reused via the hash table. The new
			// list is written into the storage of the one it replaces.
			s.nb.retire(s.ptr, s.jnb)
			s.ptr, s.jnb = buildNBListPar(p, s.atoms.Globals(), s.pos, cfg, &s.nb)
			p.Barrier()
			p.Mark(phaseNBUpdate)
			s.ht.ClearStamp(s.sNB)
			s.locJnb = s.ht.HashInto(s.locJnb, s.jnb, s.sNB)
			rebuildSchedules(p, s, cfg)
			p.Barrier()
			p.Mark(PhaseSchedRegen)
		}
		executeStep(p, s, cfg)
		p.Mark(PhaseExecutor)
		if cfg.SaveDue(step) {
			saveCheckpoint(p, s, cfg, step, remapCount)
			p.Mark(phaseCheckpoint)
		}
	}

	res := &ProcResult{RemapSteps: trig.Steps}
	res.Checksum = globalMeanAbs(p, s.pos)
	res.NBEntries = p.AllReduceScalarI64(comm.OpSum, int64(len(s.jnb)))
	return res, s
}

// setup generates the initial condition and runs the full preprocessing
// pipeline (initial list, phases A-E) for a fresh run. The partition+list+
// inspector episode is the trigger's step 0: it bootstraps a remap policy's
// cost estimate.
func setup(p *comm.Proc, rt *core.Runtime, cfg Config, trig *adapt.Trigger) *simState {
	init := genInitState(cfg)
	s := &simState{atoms: rt.BlockDist(cfg.NAtoms)}
	// Local slabs of the initial condition.
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	s.pos = append([]float64(nil), init.pos[3*lo:3*hi]...)
	s.vel = append([]float64(nil), init.vel[3*lo:3*hi]...)
	nbonds := len(init.bondI)
	blo, bhi := partition.BlockRange(p.Rank(), nbonds, p.Size())
	s.bondI = append([]int32(nil), init.bondI[blo:bhi]...)
	s.bondJ = append([]int32(nil), init.bondJ[blo:bhi]...)
	s.bondLen = append([]float64(nil), init.bondLen[blo:bhi]...)
	p.SkipPhase() // setup is not a measured phase

	// Initial non-bonded list on the block distribution: it supplies the
	// computational weights the partitioner needs (§4.1).
	s.ptr, s.jnb = buildNBListPar(p, s.atoms.Globals(), s.pos, cfg, &s.nb)
	p.Barrier()
	p.Mark(phaseNBListInit)

	trig.Episode(p, 0, func() { remapEpisode(p, s, cfg, cfg.Partitioner, PhaseNBList, PhaseSchedGen) })
	return s
}

// remapEpisode is the adaptive cycle after the decision: phases A-D, the
// non-bonded list regenerated on the new distribution (the paper does so
// after the initial redistribution too: Table 2's "Non-bonded List Update"
// row), and phase E, the inspector. listPhase and schedPhase name the rows
// the last two are charged to.
func remapEpisode(p *comm.Proc, s *simState, cfg Config, part string, listPhase, schedPhase string) {
	repartition(p, s, part)
	// The list the repartition moved is replaced at once: the new one is
	// built in its storage.
	s.nb.retire(s.ptr, s.jnb)
	s.ptr, s.jnb = buildNBListPar(p, s.atoms.Globals(), s.pos, cfg, &s.nb)
	p.Barrier()
	p.Mark(listPhase)
	buildInspector(p, s, cfg)
	p.Barrier()
	p.Mark(schedPhase)
}

// Validate reports an inconsistent configuration, naming the field at fault.
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"NAtoms", cfg.NAtoms, 1}, {"Steps", cfg.Steps, 0}, {"NBEvery", cfg.NBEvery, 1},
	} {
		if f.val < f.min {
			return fmt.Errorf("charmm: %s is %d, want at least %d", f.name, f.val, f.min)
		}
	}
	if !partition.Known(cfg.Partitioner) {
		return errors.New("charmm: unknown partitioner " + cfg.Partitioner)
	}
	_, err := adapt.NewTrigger(cfg.Remap, cfg.AdaptVerify)
	return cmp.Or(cfg.Recovery.Validate("charmm"), err)
}

// mustTrigger validates the configuration, panicking with the complaint,
// and returns the run's remap trigger. The compiled run writes no
// checkpoints and resumes none, so it also refuses to be asked to.
func (cfg Config) mustTrigger(compiled bool) *adapt.Trigger {
	err := cfg.Validate()
	if err == nil && compiled && (cfg.CheckpointEvery > 0 || cfg.ResumeFrom != "") {
		err = fmt.Errorf("charmm: the compiled run writes no checkpoints and resumes none, but CheckpointEvery is %d and ResumeFrom %q", cfg.CheckpointEvery, cfg.ResumeFrom)
	}
	if err != nil {
		panic(err.Error())
	}
	trig, _ := adapt.NewTrigger(cfg.Remap, cfg.AdaptVerify) // validated
	return trig
}

// partitionerAt names the partitioner of the remap that follows remapCount
// earlier ones: the configured one, or under AlternatePartitioners (the
// Table 6 scenario) RCB and RIB in turn.
func (cfg Config) partitionerAt(remapCount int) string {
	switch {
	case !cfg.AlternatePartitioners || remapCount%2 == 0:
		return cfg.Partitioner
	case cfg.Partitioner == "rcb":
		return "rib"
	}
	return "rcb"
}

// repartition runs phases A-D: partition atoms (weighted by non-bonded list
// length), remap the atom arrays, and repartition+move the bonded pairs by
// the almost-owner-computes rule.
func repartition(p *comm.Proc, s *simState, part string) {
	owners := s.part.atomOwners(p, part, s.atoms.Globals(), s.atoms.N(), s.pos, s.ptr)
	p.Barrier()
	p.Mark(PhasePartition)

	atoms2, plan := s.atoms.Repartition(owners)
	// The arrays a move consumes are the state's own: they are the next
	// repartition's destinations.
	s.pos, s.posOld = plan.MoveF64Into(s.posOld, p, s.pos, 3), s.pos
	s.vel, s.velOld = plan.MoveF64Into(s.velOld, p, s.vel, 3), s.vel
	ptr, jnb := plan.MoveCSRInto(s.ptrOld, s.jnbOld, p, s.ptr, s.jnb)
	s.ptr, s.jnb, s.ptrOld, s.jnbOld = ptr, jnb, s.ptr, s.jnb
	recycle.PoisonF64(s.posOld)
	recycle.PoisonF64(s.velOld)
	recycle.PoisonI32(s.ptrOld)
	recycle.PoisonI32(s.jnbOld)
	s.atoms = atoms2

	// Bonded loop iterations: almost-owner-computes, then move the pairs.
	bOwners := bondOwners(p, s.bondI, s.bondJ, s.atoms.TT())
	ls := schedule.BuildLight(p, bOwners)
	pairs := make([]int32, 2*len(s.bondI))
	for k := range s.bondI {
		pairs[2*k] = s.bondI[k]
		pairs[2*k+1] = s.bondJ[k]
	}
	moved := ls.MoveI32(p, bOwners, pairs, 2)
	s.bondLen = ls.MoveF64(p, bOwners, s.bondLen, 1)
	s.bondI = make([]int32, len(moved)/2)
	s.bondJ = make([]int32, len(moved)/2)
	for k := range s.bondI {
		s.bondI[k] = moved[2*k]
		s.bondJ[k] = moved[2*k+1]
	}
	p.Barrier()
	p.Mark(PhaseRemap)
}

// bondOwners partitions the bonded loop's iterations (bond k references
// atoms bi[k] and bj[k]) over the atom distribution tt by the
// almost-owner-computes rule. Collective.
func bondOwners(p *comm.Proc, bi, bj []int32, tt *ttable.Table) []int32 {
	refs := make([][]int32, len(bi))
	for k := range refs {
		refs[k] = []int32{bi[k], bj[k]}
	}
	return remap.IterationOwners(p, refs, tt, remap.AlmostOwnerComputes)
}

// partState is the per-run working storage of the phase-A partitioner
// calls: the geometry columns (which carry partition's bisection scratch)
// and the owner list, refilled at every repartition instead of reallocated.
// The owner list is consumed by the Repartition that follows each call.
type partState struct {
	geom partition.Geom
	out  []int32
}

// owners runs the geometric partitioner part over this rank's atoms (pos
// 3-wide, in local order), weighted by non-bonded row length.
func (ps *partState) owners(p *comm.Proc, part string, pos []float64, ptr []int32) []int32 {
	n := len(pos) / 3
	g := &ps.geom
	g.Dim = 3
	g.X, g.Y, g.Z, g.W = recycle.Sized(g.X, n), recycle.Sized(g.Y, n), recycle.Sized(g.Z, n), recycle.Sized(g.W, n)
	for i := 0; i < n; i++ {
		g.X[i] = pos[3*i]
		g.Y[i] = pos[3*i+1]
		g.Z[i] = pos[3*i+2]
		g.W[i] = 1 + float64(ptr[i+1]-ptr[i])
	}
	ps.out = partition.ByName(ps.out, p, part, g)
	recycle.PoisonF64(g.X)
	recycle.PoisonF64(g.Y)
	recycle.PoisonF64(g.Z)
	recycle.PoisonF64(g.W)
	return ps.out
}

// atomOwners runs the configured phase-A partitioner over the atoms this
// rank holds (globals, out of nAtoms).
func (ps *partState) atomOwners(p *comm.Proc, part string, globals []int32, nAtoms int, pos []float64, ptr []int32) []int32 {
	if part != "block" {
		return ps.owners(p, part, pos, ptr)
	}
	ps.out = partition.BlockOwnersInto(ps.out, globals, nAtoms, p.Size())
	return ps.out
}

// buildInspector hashes the indirection arrays into a clean hash table and
// builds the communication schedules. After a repartition or restore the
// cached translations are stale, so an existing table is invalidated
// (rebound to the new translation table, entries and stamps dropped) rather
// than reused.
func buildInspector(p *comm.Proc, s *simState, cfg Config) {
	s.ht = s.atoms.NewHashTableInto(s.ht)
	s.sBond = s.ht.NewStamp()
	s.sNB = s.ht.NewStamp()
	s.locBI = s.ht.HashInto(s.locBI, s.bondI, s.sBond)
	s.locBJ = s.ht.HashInto(s.locBJ, s.bondJ, s.sBond)
	s.locJnb = s.ht.HashInto(s.locJnb, s.jnb, s.sNB)
	rebuildSchedules(p, s, cfg)
}

// rebuildSchedules constructs either the single merged schedule or the two
// per-loop schedules from the current stamps.
func rebuildSchedules(p *comm.Proc, s *simState, cfg Config) {
	if cfg.Merged {
		s.sched = schedule.BuildInto(s.sched, p, s.ht, s.sBond|s.sNB, 0)
		s.schedB, s.schedNB = nil, nil
	} else {
		s.schedB = schedule.BuildInto(s.schedB, p, s.ht, s.sBond, 0)
		s.schedNB = schedule.BuildInto(s.schedNB, p, s.ht, s.sNB, 0)
		s.sched = nil
	}
}

// executeStep is phase F: gather coordinates, compute bonded and non-bonded
// forces, scatter-add force contributions, integrate owned atoms.
func executeStep(p *comm.Proc, s *simState, cfg Config) {
	nLocal := s.ht.NLocal()
	posBuf, frc := s.stepBuffers()
	c2 := cfg.Cutoff * cfg.Cutoff

	if cfg.Merged {
		schedule.GatherW(p, s.sched, posBuf, 3)
	} else {
		schedule.GatherW(p, s.schedB, posBuf, 3)
		schedule.GatherW(p, s.schedNB, posBuf, 3)
	}

	// Bonded forces (loop L2 of Figure 2).
	for k := range s.locBI {
		i, j := s.locBI[k], s.locBJ[k]
		bondForce(posBuf[3*i:3*i+3], posBuf[3*j:3*j+3], frc[3*i:3*i+3], frc[3*j:3*j+3], s.bondLen[k])
	}
	p.ComputeFlops(bondFlops * len(s.locBI))
	if !cfg.Merged {
		schedule.ScatterW(p, s.schedB, frc, 3, schedule.OpAdd)
		for i := 3 * nLocal; i < len(frc); i++ {
			frc[i] = 0 // per-loop schedules: ghost contributions must not leak
		}
	}

	// Non-bonded forces (loop L3 of Figure 2): atom i is local row i.
	for i := 0; i < s.atoms.NLocal(); i++ {
		pairForceRow(posBuf[3*i:3*i+3], frc[3*i:3*i+3], s.locJnb[s.ptr[i]:s.ptr[i+1]], posBuf, frc, c2)
	}
	p.ComputeFlops(pairFlops * len(s.locJnb))

	if cfg.Merged {
		schedule.ScatterW(p, s.sched, frc, 3, schedule.OpAdd)
	} else {
		schedule.ScatterW(p, s.schedNB, frc, 3, schedule.OpAdd)
	}

	for i := 0; i < s.atoms.NLocal(); i++ {
		integrate(s.pos[3*i:3*i+3], s.vel[3*i:3*i+3], frc[3*i:3*i+3], &cfg.box, cfg.Dt)
	}
	p.ComputeFlops(integrateFlops * s.atoms.NLocal())
}
