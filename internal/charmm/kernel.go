package charmm

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/loopir"
	"repro/internal/partition"
	"repro/internal/recycle"
	"repro/internal/schedule"
)

// This file implements the Table 6 experiment: the non-bonded force
// calculation loop of Figure 10, parallelized once by hand with direct
// CHAOS calls (RunKernelHand) and once through the Fortran-D-style compiler
// (RunKernelCompiled via loopir). Both run the same case for a number of
// iterations, redistributing the data arrays periodically with RCB and RIB
// alternately, exactly as described in §5.3.1.

// KernelConfig parameterizes the Table 6 experiment.
type KernelConfig struct {
	// NAtoms is the atom count (14026 for the paper's case).
	NAtoms int
	// Iters is the iteration count (100 in the paper).
	Iters int
	// RemapEvery redistributes data arrays every RemapEvery iterations,
	// alternating RCB and RIB (25 in the paper).
	RemapEvery int
	// Seed drives the synthetic geometry.
	Seed int64
}

// DefaultKernelConfig matches the paper's Table 6 setup.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{NAtoms: 14026, Iters: 100, RemapEvery: 25, Seed: 1994}
}

// KernelResult reports the Table 6 columns in virtual seconds (this rank's
// view) plus a global checksum for cross-validation.
type KernelResult struct {
	Partition float64
	Remap     float64
	Inspector float64
	Executor  float64
	Total     float64
	Checksum  float64
}

// kernelFlopsPerPair models the Figure 10 body: two REDUCE(SUM) pairs over
// each of the three components.
const kernelFlopsPerPair = 12

// kernelSetup generates the inputs of the synthetic case: every atom's
// position (identical on all ranks) and this rank's BLOCK slab of the
// non-bonded list in local CSR form. All atoms are binned once — cheap, O(N)
// — and only the slab's rows are searched, so no rank builds the list of
// atoms it does not start with. Setup is outside the modeled run: it charges
// nothing.
func kernelSetup(p *comm.Proc, cfg KernelConfig) (pos []float64, ptr, jnb []int32) {
	mdCfg := DefaultConfig().scaled(cfg.NAtoms)
	mdCfg.Seed = cfg.Seed
	st := GenInitState(mdCfg)
	var nb nbSearch
	nb.grid.build(st.Pos, nil, cfg.NAtoms, mdCfg.Box, mdCfg.Cutoff)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	ptr, jnb = nb.searchRows(st.Pos, nil, lo, hi, mdCfg)
	return st.Pos, ptr, jnb
}

// kernelPartitioner computes the alternating RCB/RIB owners for the current
// local geometry, weighted by non-bonded row length.
func kernelPartitioner(p *comm.Proc, ps *partState, which int, pos []float64, ptr []int32) []int32 {
	return ps.owners(p, [2]string{"rcb", "rib"}[which%2], pos, ptr)
}

// globalMeanAbs reduces the mean absolute value of a distributed array: the
// checksum of the applications (over positions) and of the kernel (over the
// accumulated displacements). Collective.
func globalMeanAbs(p *comm.Proc, dx []float64) float64 {
	s := 0.0
	for _, v := range dx {
		if v < 0 {
			s -= v
		} else {
			s += v
		}
	}
	tot := p.AllReduceF64(comm.OpSum, []float64{s, float64(len(dx))})
	return tot[0] / tot[1]
}

// RunKernelHand is the hand-parallelized kernel: direct CHAOS calls, the
// comparator row of Table 6. Collective.
func RunKernelHand(p *comm.Proc, cfg KernelConfig) *KernelResult {
	gpos, ptr, jnb := kernelSetup(p, cfg)
	rt := core.NewRuntime(p)
	atoms := rt.BlockDist(cfg.NAtoms)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	pos := append([]float64(nil), gpos[3*lo:3*hi]...)
	dx := make([]float64, 3*(hi-lo))
	timer := core.NewPhaseTimer(p)

	// Every array here is the kernel's own, so each adaptive cycle reuses
	// the previous one's storage: the inspector products are rebuilt in
	// place and each moved array's old copy is the next move's destination.
	var ht *hashtab.Table
	var stamp hashtab.Stamp
	var loc []int32
	var sched *schedule.Schedule
	inspect := func() {
		ht = atoms.NewHashTableInto(ht)
		stamp = ht.NewStamp()
		loc = ht.HashInto(loc, jnb, stamp)
		sched = schedule.BuildInto(sched, p, ht, stamp, 0)
	}
	var ps partState
	var posOld, dxOld []float64
	var ptrOld, jnbOld []int32
	inspect()
	p.Barrier()
	timer.Mark("inspector")

	remapCount := 0
	var xb, fb []float64 // gather and contribution buffers, reused across iterations
	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			owners := kernelPartitioner(p, &ps, remapCount, pos, ptr)
			remapCount++
			p.Barrier()
			timer.Mark("partition")
			newAtoms, plan := atoms.Repartition(owners)
			pos, posOld = plan.MoveF64Into(posOld, p, pos, 3), pos
			dx, dxOld = plan.MoveF64Into(dxOld, p, dx, 3), dx
			newPtr, newJnb := plan.MoveCSRInto(ptrOld, jnbOld, p, ptr, jnb)
			ptr, jnb, ptrOld, jnbOld = newPtr, newJnb, ptr, jnb
			atoms = newAtoms
			p.Barrier()
			timer.Mark("remap")
			inspect()
			p.Barrier()
			timer.Mark("inspector")
		}
		// Executor: gather x, run the Figure 10 body, scatter-add dx.
		nBuf := ht.NLocal() + ht.NGhosts()
		xb, fb = recycle.Sized(xb, 3*nBuf), recycle.Sized(fb, 3*nBuf)
		copy(xb, pos)
		schedule.GatherW(p, sched, xb, 3)
		clear(fb)
		pairs := 0
		for i := 0; i < atoms.NLocal(); i++ {
			xi := xb[3*i : 3*i+3]
			fi := fb[3*i : 3*i+3]
			for k := ptr[i]; k < ptr[i+1]; k++ {
				j := int(loc[k])
				xj := xb[3*j : 3*j+3]
				fj := fb[3*j : 3*j+3]
				for c := 0; c < 3; c++ {
					fj[c] += xj[c] - xi[c]
					fi[c] += xi[c] - xj[c]
				}
				pairs++
			}
		}
		p.ComputeFlops(kernelFlopsPerPair * pairs)
		schedule.ScatterW(p, sched, fb, 3, schedule.OpAdd)
		for i := 0; i < atoms.NLocal()*3; i++ {
			dx[i] += fb[i]
		}
		p.ComputeMem(atoms.NLocal() * 3)
		timer.Mark("executor")
	}

	return &KernelResult{
		Partition: timer.Times["partition"],
		Remap:     timer.Times["remap"],
		Inspector: timer.Times["inspector"],
		Executor:  timer.Times["executor"],
		Total:     p.Clock(),
		Checksum:  globalMeanAbs(p, dx),
	}
}

// compiledKernel is the Table 6 loop expressed in the Fortran-D-style IR and
// lowered by loopir: the declarations, the compiled loop and the host's
// partitioner state.
type compiledKernel struct {
	p      *comm.Proc
	dec    *loopir.Decomposition
	x, dx  *loopir.RealArray
	ind    *loopir.IndArray
	loop   *loopir.SumLoop
	timer  *core.PhaseTimer
	ps     partState
	remaps int
}

func newCompiledKernel(p *comm.Proc, cfg KernelConfig) *compiledKernel {
	gpos, ptr, vals := kernelSetup(p, cfg)
	prog := loopir.NewProgram(p)
	k := &compiledKernel{p: p, dec: prog.Decomposition(cfg.NAtoms)}
	k.x = k.dec.AlignReal(3)
	k.dx = k.dec.AlignReal(3)
	k.x.SetByGlobal(func(g int32, c []float64) { copy(c, gpos[3*g:3*g+3]) })
	k.ind = k.dec.AlignIndCSR()
	k.ind.SetCSR(ptr, vals)
	k.timer = core.NewPhaseTimer(p)
	k.loop = prog.NewSumLoop(k.ind, k.x, k.dx, kernelFlopsPerPair, func(xi, xj, fi, fj []float64) {
		for c := range xi {
			fj[c] += xj[c] - xi[c]
			fi[c] += xi[c] - xj[c]
		}
	})
	return k
}

// adapt is one adaptive cycle: extrinsic partitioner (RCB and RIB
// alternately), DISTRIBUTE, and the generated guard re-running the
// inspector.
func (k *compiledKernel) adapt() {
	curPtr, _ := k.ind.CSR()
	owners := kernelPartitioner(k.p, &k.ps, k.remaps, k.x.Local(), curPtr)
	k.remaps++
	k.p.Barrier()
	k.timer.Mark("partition")
	k.dec.Redistribute(owners)
	k.p.Barrier()
	k.timer.Mark("remap")
	k.loop.Inspect() // generated guard: versions changed, rebuild
	k.p.Barrier()
	k.timer.Mark("inspector")
}

// RunKernelCompiled is the compiler-generated kernel: the same loop
// expressed in the Fortran-D-style IR and lowered by loopir. Collective.
func RunKernelCompiled(p *comm.Proc, cfg KernelConfig) *KernelResult {
	k := newCompiledKernel(p, cfg)
	timer := k.timer
	k.loop.Inspect()
	p.Barrier()
	timer.Mark("inspector")

	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			k.adapt()
		}
		k.loop.Execute()
		timer.Mark("executor")
	}

	return &KernelResult{
		Partition: timer.Times["partition"],
		Remap:     timer.Times["remap"],
		Inspector: timer.Times["inspector"],
		Executor:  timer.Times["executor"],
		Total:     p.Clock(),
		Checksum:  globalMeanAbs(p, k.dx.Local()),
	}
}
