package mesh

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/remap"
	"repro/internal/schedule"
)

// Modeled per-operation costs of the edge kernel.
const (
	fluxFlops   = 8
	updateFlops = 4
)

// RunConfig parameterizes a parallel relaxation run.
type RunConfig struct {
	NX, NY int
	Jitter float64
	Seed   int64
	Sweeps int
	Omega  float64
	// Partitioner: "block", "rcb", "rib" or "chain".
	Partitioner string
}

// DefaultRunConfig returns a medium-size static irregular problem.
func DefaultRunConfig() RunConfig {
	return RunConfig{NX: 60, NY: 60, Jitter: 0.35, Seed: 7, Sweeps: 40, Omega: 0.8, Partitioner: "rcb"}
}

// ProcResult is one rank's outcome.
type ProcResult struct {
	// Residual is the global RMS residual after the sweeps (identical on
	// every rank).
	Residual float64
	// GhostCount is the number of off-processor vertices this rank
	// fetches per sweep (the communication footprint the partitioner
	// determines).
	GhostCount int
	// Checksum is the global mean |u| (identical on every rank).
	Checksum float64
}

// Run executes the CHAOS-parallelized edge relaxation: vertices are
// partitioned geometrically, the edge loop is partitioned by the
// almost-owner-computes rule, preprocessing happens once (static irregular
// problem), and the executor runs `Sweeps` gather/compute/scatter-add
// sweeps. Collective.
func Run(p *comm.Proc, cfg RunConfig) *ProcResult {
	m := Generate(cfg.NX, cfg.NY, cfg.Jitter, cfg.Seed)
	rt := core.NewRuntime(p)
	verts := rt.BlockDist(m.NV)

	// Phase A: geometric partitioning of vertices, weighted by degree.
	owners := vertexOwners(p, m, verts, cfg.Partitioner)
	verts2, plan := verts.Repartition(owners)

	// Phase B: move the solution field and per-vertex metadata.
	u := make([]float64, verts.NLocal())
	bnd := make([]float64, verts.NLocal()) // 1.0 on boundary vertices
	for i, g := range verts.Globals() {
		if m.Boundary[g] {
			u[i] = BoundaryValue(m.X[g], m.Y[g])
			bnd[i] = 1
		}
	}
	u = plan.MoveF64(p, u, 1)
	bnd = plan.MoveF64(p, bnd, 1)
	verts = verts2

	// Phases C+D: edge iterations by almost-owner-computes, moved with a
	// light-weight schedule (edge order is irrelevant).
	elo, ehi := partition.BlockRange(p.Rank(), m.NE(), p.Size())
	myEI := m.EI[elo:ehi]
	myEJ := m.EJ[elo:ehi]
	refs := make([][]int32, len(myEI))
	for k := range refs {
		refs[k] = []int32{myEI[k], myEJ[k]}
	}
	eOwners := remap.IterationOwners(p, refs, verts.TT(), remap.AlmostOwnerComputes)
	ls := schedule.BuildLight(p, eOwners)
	pairs := make([]int32, 2*len(myEI))
	for k := range myEI {
		pairs[2*k] = myEI[k]
		pairs[2*k+1] = myEJ[k]
	}
	moved := ls.MoveI32(p, eOwners, pairs, 2)
	weights := make([]float64, len(myEI))
	for k := range myEI {
		weights[k] = edgeWeightOf(m, myEI[k], myEJ[k])
	}
	weights = ls.MoveF64(p, eOwners, weights, 1)
	nEdges := len(moved) / 2
	ei := make([]int32, nEdges)
	ej := make([]int32, nEdges)
	for k := 0; k < nEdges; k++ {
		ei[k] = moved[2*k]
		ej[k] = moved[2*k+1]
	}

	// Phase E: inspector — once, because the problem is static.
	ht := verts.NewHashTable()
	si := ht.NewStamp()
	sj := ht.NewStamp()
	li := ht.Hash(ei, si)
	lj := ht.Hash(ej, sj)
	sched := schedule.Build(p, ht, si|sj, 0)

	// Per-vertex weight sums (one preprocessing sweep with scatter-add).
	nBuf := ht.NLocal() + ht.NGhosts()
	wsum := make([]float64, nBuf)
	for k := 0; k < nEdges; k++ {
		wsum[li[k]] += weights[k]
		wsum[lj[k]] += weights[k]
	}
	p.ComputeFlops(2 * nEdges)
	schedule.Scatter(p, sched, wsum, schedule.OpAdd)

	// Phase F: executor, Sweeps times with the one static schedule.
	nLocal := verts.NLocal()
	ub := make([]float64, nBuf)
	r := make([]float64, nBuf)
	for s := 0; s < cfg.Sweeps; s++ {
		copy(ub, u)
		schedule.Gather(p, sched, ub)
		for i := range r {
			r[i] = 0
		}
		for k := 0; k < nEdges; k++ {
			flux := weights[k] * (ub[lj[k]] - ub[li[k]])
			r[li[k]] += flux
			r[lj[k]] -= flux
		}
		p.ComputeFlops(fluxFlops * nEdges)
		schedule.Scatter(p, sched, r, schedule.OpAdd)
		for v := 0; v < nLocal; v++ {
			if bnd[v] == 0 && wsum[v] > 0 {
				u[v] += cfg.Omega * r[v] / wsum[v]
			}
		}
		p.ComputeFlops(updateFlops * nLocal)
	}

	// Global residual and checksum.
	copy(ub, u)
	schedule.Gather(p, sched, ub)
	for i := range r {
		r[i] = 0
	}
	for k := 0; k < nEdges; k++ {
		flux := weights[k] * (ub[lj[k]] - ub[li[k]])
		r[li[k]] += flux
		r[lj[k]] -= flux
	}
	schedule.Scatter(p, sched, r, schedule.OpAdd)
	locRes, locN, locAbs := 0.0, 0.0, 0.0
	for v := 0; v < nLocal; v++ {
		if bnd[v] == 0 {
			locRes += r[v] * r[v]
			locN++
		}
		if u[v] < 0 {
			locAbs -= u[v]
		} else {
			locAbs += u[v]
		}
	}
	tot := p.AllReduceF64(comm.OpSum, []float64{locRes, locN, locAbs, float64(nLocal)})
	res := &ProcResult{GhostCount: ht.NGhosts()}
	if tot[1] > 0 {
		res.Residual = tot[0] / tot[1]
	}
	res.Checksum = tot[2] / tot[3]
	return res
}

func edgeWeightOf(m *Mesh, i, j int32) float64 {
	dx := m.X[i] - m.X[j]
	dy := m.Y[i] - m.Y[j]
	d2 := dx*dx + dy*dy
	if d2 == 0 {
		return 0
	}
	return 1 / d2
}

// vertexOwners runs the configured partitioner on the owned vertices.
func vertexOwners(p *comm.Proc, m *Mesh, verts *core.Dist, part string) []int32 {
	if part == "block" {
		return partition.BlockOwnersInto(nil, verts.Globals(), m.NV, p.Size())
	}
	n := verts.NLocal()
	deg := m.Degrees()
	g := &partition.Geom{Dim: 2, X: make([]float64, n), Y: make([]float64, n), W: make([]float64, n)}
	for i, gv := range verts.Globals() {
		g.X[i] = m.X[gv]
		g.Y[i] = m.Y[gv]
		g.W[i] = float64(1 + deg[gv])
	}
	return partition.ByName(nil, p, part, g)
}
