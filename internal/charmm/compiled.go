package charmm

import (
	"repro/internal/comm"
	"repro/internal/loopir"
	"repro/internal/partition"
)

// RunCompiled executes the FULL adaptive CHARMM simulation with both force
// loops expressed through the compile-time support (§5): the bonded loop as
// a loopir.PairLoop (Figure 2's L2 template), the non-bonded loop as a
// loopir.SumLoop (Figure 10), with positions, velocities, forces and the
// bond metadata as aligned arrays that Redistribute moves automatically.
// The generated inspectors re-run exactly when the non-bonded list is
// regenerated (SetCSR bumps its modification record) or a decomposition is
// redistributed — the host only integrates, rebuilds the list, and calls
// the extrinsic partitioner, as a Fortran D program would. It refuses, like
// Validate, to checkpoint or resume. Collective.
//
// The result is physically identical to the hand-parallelized Run (within
// floating-point summation order); the hand/compiled performance comparison
// at kernel grain is Table 6 (see kernel.go).
func RunCompiled(p *comm.Proc, cfg Config) *ProcResult {
	trig := cfg.mustTrigger(true)
	init := genInitState(cfg)
	prog := loopir.NewProgram(p)

	// Declarations: atoms and bonds decompositions, aligned arrays.
	atoms := prog.Decomposition(cfg.NAtoms)
	bonds := prog.Decomposition(len(init.bondI))
	x := atoms.AlignReal(3)   // positions (read array of both loops)
	frc := atoms.AlignReal(3) // forces (reduction array of both loops)
	vel := atoms.AlignReal(3) // host-integrated, but aligned so remaps move it
	jnb := atoms.AlignIndCSR()
	ib := bonds.AlignIndFlat(1)
	jb := bonds.AlignIndFlat(1)
	blen := bonds.AlignReal(1)

	x.SetByGlobal(func(g int32, c []float64) { copy(c, init.pos[3*g:3*g+3]) })
	vel.SetByGlobal(func(g int32, c []float64) { copy(c, init.vel[3*g:3*g+3]) })
	ib.SetFlat(slabI32(p, init.bondI))
	jb.SetFlat(slabI32(p, init.bondJ))
	blen.SetByGlobal(func(g int32, c []float64) { c[0] = init.bondLen[g] })

	// Compiled loops. The bonded body reads the rest length of bond k from
	// the aligned blen array (moved in lockstep with ib/jb on remaps).
	c2 := cfg.Cutoff * cfg.Cutoff
	bonded := prog.NewPairLoop(ib, jb, x, frc, bondFlops, func(k int, xi, xj, fi, fj []float64) {
		bondForce(xi, xj, fi, fj, blen.Local()[k])
	})
	nonbonded := prog.NewSumLoopRows(jnb, x, frc, pairFlops, func(xi, fi []float64, js []int32, xb, fb []float64) {
		pairForceRow(xi, fi, js, xb, fb, c2)
	})
	p.SkipPhase()

	var nb nbSearch  // reused across rebuilds; the lists it returns are fresh
	var ps partState // reused across repartitions
	rebuildList := func(phase string) {
		ptr, vals := buildNBListPar(p, atoms.Globals(), x.Local(), cfg, &nb)
		jnb.SetCSR(ptr, vals)
		p.Barrier()
		p.Mark(phase)
	}
	repartitionAll := func(part string) {
		// Extrinsic partitioner on positions, weighted by list length.
		ptr, _ := jnb.CSR()
		owners := ps.atomOwners(p, part, atoms.Globals(), atoms.N(), x.Local(), ptr)
		p.Barrier()
		p.Mark(PhasePartition)
		atoms.Redistribute(owners)
		// Bonded iterations follow almost-owner-computes over the new
		// atom distribution.
		_, ibv := ib.CSR()
		_, jbv := jb.CSR()
		bOwners := bondOwners(p, ibv, jbv, atoms.Dist().TT())
		bonds.Redistribute(bOwners)
		p.Barrier()
		p.Mark(PhaseRemap)
	}

	// One remap episode: partition and remap, a fresh list, the inspectors.
	episode := func(part, listPhase, schedPhase string) {
		repartitionAll(part)
		rebuildList(listPhase)
		bonded.Inspect()
		nonbonded.Inspect()
		p.Barrier()
		p.Mark(schedPhase)
	}

	// Initial preprocessing: a list for the weights, then the first episode.
	rebuildList(phaseNBListInit)
	trig.Episode(p, 0, func() { episode(cfg.Partitioner, PhaseNBList, PhaseSchedGen) })

	remapCount := 0
	trig.Start(p)
	for step := 1; step <= cfg.Steps; step++ {
		cfg.Crash("charmm", p.Rank(), step)
		if trig.Due(p, step) {
			trig.Episode(p, step, func() { episode(cfg.partitionerAt(remapCount), phaseNBUpdate, PhaseSchedRegen) })
			remapCount++
		} else if step%cfg.NBEvery == 0 {
			rebuildList(phaseNBUpdate)
			nonbonded.Inspect() // generated guard: jnb's record changed
			p.Barrier()
			p.Mark(PhaseSchedRegen)
		}

		frc.Zero()
		bonded.Execute()
		nonbonded.Execute()
		// Host integration over the owned atoms.
		xs, vs, fs := x.Local(), vel.Local(), frc.Local()
		for i := 0; i < atoms.NLocal(); i++ {
			integrate(xs[3*i:3*i+3], vs[3*i:3*i+3], fs[3*i:3*i+3], &cfg.box, cfg.Dt)
		}
		p.ComputeFlops(integrateFlops * atoms.NLocal())
		p.Mark(PhaseExecutor)
	}

	res := &ProcResult{RemapSteps: trig.Steps}
	res.Checksum = globalMeanAbs(p, x.Local())
	_, vals := jnb.CSR()
	res.NBEntries = p.AllReduceScalarI64(comm.OpSum, int64(len(vals)))
	return res
}

// slabI32 returns this rank's BLOCK slab of a global int32 array.
func slabI32(p *comm.Proc, full []int32) []int32 {
	lo, hi := partition.BlockRange(p.Rank(), len(full), p.Size())
	return append([]int32(nil), full[lo:hi]...)
}
