package charmm

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/loopir"
	"repro/internal/partition"
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

// kernelSetup generates the shared inputs: positions and the non-bonded
// CSR list of the synthetic case (identical on all ranks).
func kernelSetup(cfg KernelConfig) (mdCfg Config, pos []float64, gptr, gjnb []int32) {
	mdCfg = DefaultConfig().scaled(cfg.NAtoms)
	mdCfg.Seed = cfg.Seed
	st := GenInitState(mdCfg)
	gptr, gjnb = buildNBListSeq(st.Pos, cfg.NAtoms, mdCfg)
	return mdCfg, st.Pos, gptr, gjnb
}

// kernelPartitioner computes the alternating RCB/RIB owners for the current
// local geometry, weighted by non-bonded row length.
func kernelPartitioner(p *comm.Proc, which int, pos []float64, ptr []int32) []int32 {
	n := len(ptr) - 1
	g := &partition.Geom{
		Dim: 3,
		X:   make([]float64, n),
		Y:   make([]float64, n),
		Z:   make([]float64, n),
		W:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		g.X[i] = pos[3*i]
		g.Y[i] = pos[3*i+1]
		g.Z[i] = pos[3*i+2]
		g.W[i] = 1 + float64(ptr[i+1]-ptr[i])
	}
	if which%2 == 0 {
		return partition.RCB(p, g)
	}
	return partition.RIB(p, g)
}

// localizeKernelCSR extracts this rank's BLOCK slab of the global CSR.
func localizeKernelCSR(p *comm.Proc, n int, gptr, gjnb []int32) (ptr, vals []int32) {
	lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
	ptr = make([]int32, hi-lo+1)
	for i := lo; i < hi; i++ {
		vals = append(vals, gjnb[gptr[i]:gptr[i+1]]...)
		ptr[i-lo+1] = int32(len(vals))
	}
	return ptr, vals
}

// kernelChecksum reduces the mean absolute value of the accumulated
// displacements.
func kernelChecksum(p *comm.Proc, dx []float64) float64 {
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
	mdCfg, gpos, gptr, gjnb := kernelSetup(cfg)
	_ = mdCfg
	rt := core.NewRuntime(p)
	atoms := rt.BlockDist(cfg.NAtoms)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	pos := append([]float64(nil), gpos[3*lo:3*hi]...)
	dx := make([]float64, 3*(hi-lo))
	ptr, jnb := localizeKernelCSR(p, cfg.NAtoms, gptr, gjnb)
	timer := core.NewPhaseTimer(p)

	var ht *hashtab.Table
	var stamp hashtab.Stamp
	var loc []int32
	var sched *schedule.Schedule
	inspect := func() {
		ht = atoms.NewHashTable()
		stamp = ht.NewStamp()
		loc = ht.Hash(jnb, stamp)
		sched = schedule.Build(p, ht, stamp, 0)
	}
	inspect()
	p.Barrier()
	timer.Mark("inspector")

	remapCount := 0
	var xb, fb []float64 // gather and contribution buffers, reused across iterations
	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			owners := kernelPartitioner(p, remapCount, pos, ptr)
			remapCount++
			p.Barrier()
			timer.Mark("partition")
			newAtoms, plan := atoms.Repartition(owners)
			pos = plan.MoveF64(p, pos, 3)
			dx = plan.MoveF64(p, dx, 3)
			ptr, jnb = plan.MoveCSR(p, ptr, jnb)
			atoms = newAtoms
			p.Barrier()
			timer.Mark("remap")
			inspect()
			p.Barrier()
			timer.Mark("inspector")
		}
		// Executor: gather x, run the Figure 10 body, scatter-add dx.
		nBuf := ht.NLocal() + ht.NGhosts()
		xb, fb = growF64(xb, 3*nBuf), growF64(fb, 3*nBuf)
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
		Checksum:  kernelChecksum(p, dx),
	}
}

// RunKernelCompiled is the compiler-generated kernel: the same loop
// expressed in the Fortran-D-style IR and lowered by loopir. Collective.
func RunKernelCompiled(p *comm.Proc, cfg KernelConfig) *KernelResult {
	_, gpos, gptr, gjnb := kernelSetup(cfg)
	prog := loopir.NewProgram(p)
	dec := prog.Decomposition(cfg.NAtoms)
	x := dec.AlignReal(3)
	dx := dec.AlignReal(3)
	x.SetByGlobal(func(g int32, c []float64) { copy(c, gpos[3*g:3*g+3]) })
	ind := dec.AlignIndCSR()
	ptr, vals := localizeKernelCSR(p, cfg.NAtoms, gptr, gjnb)
	ind.SetCSR(ptr, vals)
	timer := core.NewPhaseTimer(p)

	loop := prog.NewSumLoop(ind, x, dx, kernelFlopsPerPair, func(xi, xj, fi, fj []float64) {
		for c := range xi {
			fj[c] += xj[c] - xi[c]
			fi[c] += xi[c] - xj[c]
		}
	})
	loop.Inspect()
	p.Barrier()
	timer.Mark("inspector")

	remapCount := 0
	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			curPtr, _ := ind.CSR()
			owners := kernelPartitioner(p, remapCount, x.Local(), curPtr)
			remapCount++
			p.Barrier()
			timer.Mark("partition")
			dec.Redistribute(owners)
			p.Barrier()
			timer.Mark("remap")
			loop.Inspect() // generated guard: versions changed, rebuild
			p.Barrier()
			timer.Mark("inspector")
		}
		loop.Execute()
		timer.Mark("executor")
	}

	return &KernelResult{
		Partition: timer.Times["partition"],
		Remap:     timer.Times["remap"],
		Inspector: timer.Times["inspector"],
		Executor:  timer.Times["executor"],
		Total:     p.Clock(),
		Checksum:  kernelChecksum(p, dx.Local()),
	}
}
