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

// KernelResult is one rank's outcome of a kernel run: a global checksum
// for cross-validation. The Table 6 columns are the rank's phases in the
// run's comm.Report (setup, partition, remap, inspector, executor); its
// total is the clock at the last Mark, the end of its last span.
type KernelResult struct {
	Checksum float64
}

// kernelFlopsPerPair models the Figure 10 body: two REDUCE(SUM) pairs over
// each of the three components.
const kernelFlopsPerPair = 12

// kernelSetup generates the inputs of the synthetic case: every atom's
// position (identical on all ranks: charmm-md's initial positions, drawn
// without the velocities and bonds the kernel never reads) and this rank's
// BLOCK slab of the non-bonded list in local CSR form. All atoms are binned
// once — cheap, O(N) — and only the slab's rows are searched, so no rank
// builds the list of atoms it does not start with. Setup is outside the
// modeled run: it charges nothing.
func kernelSetup(p *comm.Proc, cfg KernelConfig) (pos []float64, ptr, jnb []int32) {
	mdCfg := DefaultConfig().scaled(cfg.NAtoms)
	mdCfg.Seed = cfg.Seed
	pos = initPositions(mdCfg)
	var nb nbSearch
	nb.grid.build(pos, nil, cfg.NAtoms, mdCfg.box, mdCfg.Cutoff)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	ptr, jnb = nb.searchRows(pos, nil, lo, hi, mdCfg)
	return pos, ptr, jnb
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
// and f(i) += x(i) - x(j). Written once (xi and the fi accumulators in
// registers across the row) and run by both kernels — the hand-coded one
// calls it per row, the compiled one hands it to loopir as its row body — so
// on the host clock they differ by loopir's per-row overhead only. The list
// has no self pairs (partners are gj > g).
//
// With VectorKernels set, kernelRowAVX2 applies all but the last len(js) % 4
// partners and kernelRowTail the rest; without, kernelRowTail applies the
// whole row. The two give the same bits: see kernelRowAVX2. The kernel stops
// at a partner whose slot lies outside xb or fb and leaves it to
// kernelRowTail, whose bounds checks panic there, as they do without the
// vector kernel.
func kernelRow(xi, fi []float64, js []int32, xb, fb []float64) {
	x, f := (*[3]float64)(xi), (*[3]float64)(fi)
	if VectorKernels && len(js) >= 4 {
		js = js[kernelRowAVX2(x, f, js[:len(js)&^3], &xb[0], &fb[0], min(len(xb), len(fb))/3):]
	}
	kernelRowTail(x, f, js, xb, fb)
}

// kernelRowTail is kernelRow's portable loop. Partner slots are indexed
// directly at k = 3j: a (*[3]float64) view per partner costs a length check,
// a masked base pointer and a stack spill per array, and leaves no register
// for xb and fb's headers. The three coordinates of j are read before any of
// its force slots is written, since the compiler cannot see that xb and fb
// never alias and would reload them.
func kernelRowTail(x, f *[3]float64, js []int32, xb, fb []float64) {
	x0, x1, x2 := x[0], x[1], x[2]
	f0, f1, f2 := f[0], f[1], f[2]
	for _, j := range js {
		k := 3 * int(j)
		y0, y1, y2 := xb[k], xb[k+1], xb[k+2]
		fb[k] += y0 - x0
		f0 += x0 - y0
		fb[k+1] += y1 - x1
		f1 += x1 - y1
		fb[k+2] += y2 - x2
		f2 += x2 - y2
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

// newHandKernel builds the kernel's initial state. The list search and the
// copies are charged to "setup", the phase the rank body opens with.
func newHandKernel(p *comm.Proc, cfg KernelConfig) *handKernel {
	gpos, ptr, jnb := kernelSetup(p, cfg)
	lo, hi := partition.BlockRange(p.Rank(), cfg.NAtoms, p.Size())
	k := &handKernel{
		p:     p,
		atoms: core.NewRuntime(p).BlockDist(cfg.NAtoms),
		pos:   append([]float64(nil), gpos[3*lo:3*hi]...),
		dx:    make([]float64, 3*(hi-lo)),
		ptr:   ptr,
		jnb:   jnb,
	}
	p.Mark("setup")
	return k
}

func (k *handKernel) inspect() {
	k.ht = k.atoms.NewHashTableInto(k.ht)
	k.stamp = k.ht.NewStamp()
	k.loc = k.ht.HashInto(k.loc, k.jnb, k.stamp)
	k.sched = schedule.BuildInto(k.sched, k.p, k.ht, k.stamp, 0)
	k.p.Barrier()
	k.p.Mark("inspector")
}

// adapt is one adaptive cycle: partitioner (RCB and RIB alternately), remap
// of the data and indirection arrays, inspector.
func (k *handKernel) adapt() {
	p := k.p
	owners := kernelPartitioner(p, &k.ps, k.remaps, k.pos, k.ptr)
	k.remaps++
	p.Barrier()
	p.Mark("partition")
	newAtoms, plan := k.atoms.Repartition(owners)
	k.pos, k.posOld = plan.MoveF64Into(k.posOld, p, k.pos, 3), k.pos
	k.dx, k.dxOld = plan.MoveF64Into(k.dxOld, p, k.dx, 3), k.dx
	newPtr, newJnb := plan.MoveCSRInto(k.ptrOld, k.jnbOld, p, k.ptr, k.jnb)
	k.ptr, k.jnb, k.ptrOld, k.jnbOld = newPtr, newJnb, k.ptr, k.jnb
	k.atoms = newAtoms
	p.Barrier()
	p.Mark("remap")
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
		p.Mark("executor")
	}
	return &KernelResult{Checksum: globalMeanAbs(p, k.dx)}
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
	ps     partState
	remaps int
}

// newCompiledKernel builds the declarations and the loop. As in
// newHandKernel, the list search, SetByGlobal and SetCSR are charged to
// "setup".
func newCompiledKernel(p *comm.Proc, cfg KernelConfig) *compiledKernel {
	gpos, ptr, vals := kernelSetup(p, cfg)
	prog := loopir.NewProgram(p)
	k := &compiledKernel{p: p, dec: prog.Decomposition(cfg.NAtoms)}
	k.x = k.dec.AlignReal(3)
	k.dx = k.dec.AlignReal(3)
	k.x.SetByGlobal(func(g int32, c []float64) { copy(c, gpos[3*g:3*g+3]) })
	k.ind = k.dec.AlignIndCSR()
	k.ind.SetCSR(ptr, vals)
	p.Mark("setup")
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
	k.p.Mark("partition")
	k.dec.Redistribute(owners)
	k.p.Barrier()
	k.p.Mark("remap")
	k.loop.Inspect() // generated guard: versions changed, rebuild
	k.p.Barrier()
	k.p.Mark("inspector")
}

// RunKernelCompiled is the compiler-generated kernel: the same loop
// expressed in the Fortran-D-style IR and lowered by loopir. Collective.
func RunKernelCompiled(p *comm.Proc, cfg KernelConfig) *KernelResult {
	k := newCompiledKernel(p, cfg)
	k.loop.Inspect()
	p.Barrier()
	p.Mark("inspector")

	for iter := 1; iter <= cfg.Iters; iter++ {
		if cfg.RemapEvery > 0 && iter%cfg.RemapEvery == 0 {
			k.adapt()
		}
		k.loop.Execute()
		p.Mark("executor")
	}

	return &KernelResult{Checksum: globalMeanAbs(p, k.dx.Local())}
}
