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

// kernelRow is the Figure 10 body over one row of the list: two REDUCE(SUM)
// statements per partner j over the three components, f(j) += x(j) - x(i)
// and f(i) += x(i) - x(j). Written once in fixed-width form (xi and the fi
// accumulators in registers across the row) and run by both kernels — the
// hand-coded one calls it per row, the compiled one hands it to loopir as
// its row body — so on the host clock they differ by loopir's per-row
// overhead only. The list has no self pairs (partners are gj > g).
func kernelRow(xi, fi []float64, js []int32, xb, fb []float64) {
	x, f := (*[3]float64)(xi), (*[3]float64)(fi)
	x0, x1, x2 := x[0], x[1], x[2]
	f0, f1, f2 := f[0], f[1], f[2]
	for _, j := range js {
		xj, fj := (*[3]float64)(xb[3*j:]), (*[3]float64)(fb[3*j:])
		fj[0] += xj[0] - x0
		f0 += x0 - xj[0]
		fj[1] += xj[1] - x1
		f1 += x1 - xj[1]
		fj[2] += xj[2] - x2
		f2 += x2 - xj[2]
	}
	f[0], f[1], f[2] = f0, f1, f2
}

// handKernel is the hand-parallelized kernel: direct CHAOS calls over arrays
// that are all the kernel's own, so each adaptive cycle reuses the previous
// one's storage — the inspector products are rebuilt in place and each moved
// array's old copy is the next move's destination.
type handKernel struct {
	p        *comm.Proc
	atoms    *core.Dist
	pos, dx  []float64
	ptr, jnb []int32
	timer    *core.PhaseTimer

	ht    *hashtab.Table
	stamp hashtab.Stamp
	loc   []int32
	sched *schedule.Schedule

	ps             partState
	remaps         int
	posOld, dxOld  []float64
	ptrOld, jnbOld []int32

	xb, fb []float64 // gather and contribution buffers, reused across iterations
}

func newHandKernel(p *comm.Proc, cfg KernelConfig) *handKernel {
	gpos, ptr, jnb := kernelSetup(p, cfg)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	return &handKernel{
		p:     p,
		atoms: core.NewRuntime(p).BlockDist(cfg.NAtoms),
		pos:   append([]float64(nil), gpos[3*lo:3*hi]...),
		dx:    make([]float64, 3*(hi-lo)),
		ptr:   ptr,
		jnb:   jnb,
		timer: core.NewPhaseTimer(p),
	}
}

func (k *handKernel) inspect() {
	k.ht = k.atoms.NewHashTableInto(k.ht)
	k.stamp = k.ht.NewStamp()
	k.loc = k.ht.HashInto(k.loc, k.jnb, k.stamp)
	k.sched = schedule.BuildInto(k.sched, k.p, k.ht, k.stamp, 0)
	k.p.Barrier()
	k.timer.Mark("inspector")
}

// adapt is one adaptive cycle: partitioner (RCB and RIB alternately), remap
// of the data and indirection arrays, inspector.
func (k *handKernel) adapt() {
	p := k.p
	owners := kernelPartitioner(p, &k.ps, k.remaps, k.pos, k.ptr)
	k.remaps++
	p.Barrier()
	k.timer.Mark("partition")
	newAtoms, plan := k.atoms.Repartition(owners)
	k.pos, k.posOld = plan.MoveF64Into(k.posOld, p, k.pos, 3), k.pos
	k.dx, k.dxOld = plan.MoveF64Into(k.dxOld, p, k.dx, 3), k.dx
	newPtr, newJnb := plan.MoveCSRInto(k.ptrOld, k.jnbOld, p, k.ptr, k.jnb)
	k.ptr, k.jnb, k.ptrOld, k.jnbOld = newPtr, newJnb, k.ptr, k.jnb
	k.atoms = newAtoms
	p.Barrier()
	k.timer.Mark("remap")
	k.inspect()
}

// execute is the executor: gather x, run the Figure 10 rows, scatter-add
// and accumulate into dx.
func (k *handKernel) execute() {
	p, nLocal := k.p, k.atoms.NLocal()
	nBuf := k.ht.NLocal() + k.ht.NGhosts()
	k.xb, k.fb = recycle.Sized(k.xb, 3*nBuf), recycle.Sized(k.fb, 3*nBuf)
	xb, fb := k.xb, k.fb
	copy(xb, k.pos)
	schedule.GatherW(p, k.sched, xb, 3)
	clear(fb)
	for i := 0; i < nLocal; i++ {
		kernelRow(xb[3*i:3*i+3], fb[3*i:3*i+3], k.loc[k.ptr[i]:k.ptr[i+1]], xb, fb)
	}
	p.ComputeFlops(kernelFlopsPerPair * int(k.ptr[nLocal]))
	schedule.ScatterW(p, k.sched, fb, 3, schedule.OpAdd)
	for i := 0; i < nLocal*3; i++ {
		k.dx[i] += fb[i]
	}
	p.ComputeMem(nLocal * 3)
}

// RunKernelHand is the hand-parallelized kernel: direct CHAOS calls, the
// comparator row of Table 6. Collective.
func RunKernelHand(p *comm.Proc, cfg KernelConfig) *KernelResult {
	k := newHandKernel(p, cfg)
	k.inspect()
	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			k.adapt()
		}
		k.execute()
		k.timer.Mark("executor")
	}
	return kernelResult(p, k.timer, k.dx)
}

// kernelResult collects the Table 6 columns of a finished kernel run.
func kernelResult(p *comm.Proc, timer *core.PhaseTimer, dx []float64) *KernelResult {
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
	k.loop = prog.NewSumLoopRows(k.ind, k.x, k.dx, kernelFlopsPerPair, kernelRow)
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

	return kernelResult(p, timer, k.dx.Local())
}
