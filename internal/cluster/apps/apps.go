// Package apps hosts the runnable CHAOS applications shared by every
// process-level launcher: chaosd's one-process-per-rank role, its worker
// pool, and the in-process cluster bench. A Spec names an application and
// its size; Run executes one rank's share of it as a collective body under
// comm.Run or comm.RunRank. The launchers differ only in how they wire the
// transport and how many virtual ranks a process hosts — the computation,
// checkpoint cadence, and resume path live here exactly once.
package apps

import (
	"fmt"
	"math"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dsmc"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// Spec selects and sizes one application run. The zero value is not
// runnable; call Normalize to fill launcher defaults, Validate to check.
type Spec struct {
	// App is the computation: "fig1" (the paper's Figure 1 irregular
	// loop), "charmm", or "dsmc".
	App string `json:"app"`
	// Elems is the fig1 data-array length, the CHARMM atom count, or the
	// DSMC molecule count.
	Elems int `json:"elems,omitempty"`
	// Iters is the fig1 irregular-loop iteration count.
	Iters int `json:"iters,omitempty"`
	// Steps is the charmm/dsmc time-step count.
	Steps int `json:"steps,omitempty"`
	// CheckpointEvery, when positive, checkpoints every N steps under
	// CheckpointDir (charmm and dsmc only).
	CheckpointEvery int `json:"ckpt_every,omitempty"`
	// CheckpointDir is the checkpoint base directory.
	CheckpointDir string `json:"ckpt_dir,omitempty"`
	// ResumeFrom, when non-empty, restores from the given sealed
	// checkpoint directory before stepping (elastic if the rank count
	// differs from the writer's).
	ResumeFrom string `json:"resume,omitempty"`
	// CrashStep/CrashRank inject a rank panic at a step (demos, tests).
	CrashStep int `json:"crash_step,omitempty"`
	CrashRank int `json:"crash_rank,omitempty"`
}

// Normalize fills zero-valued fields with the defaults every launcher shares.
func (s *Spec) Normalize() {
	if s.App == "" {
		s.App = "fig1"
	}
	if s.Elems <= 0 {
		s.Elems = 4000
	}
	if s.Iters <= 0 {
		s.Iters = 12000
	}
	if s.Steps <= 0 {
		s.Steps = 12
	}
}

// Validate reports whether the spec names a runnable configuration.
func (s Spec) Validate() error {
	switch s.App {
	case "fig1":
		if s.CheckpointEvery > 0 || s.ResumeFrom != "" {
			return fmt.Errorf("apps: checkpoint/resume requires app charmm or dsmc, not %q", s.App)
		}
		if s.Iters <= 0 {
			return fmt.Errorf("apps: fig1 needs iters > 0, got %d", s.Iters)
		}
	case "charmm", "dsmc":
		if s.Steps <= 0 {
			return fmt.Errorf("apps: %s needs steps > 0, got %d", s.App, s.Steps)
		}
		if s.CheckpointEvery > 0 && s.CheckpointDir == "" {
			return fmt.Errorf("apps: ckpt_every set without ckpt_dir")
		}
	default:
		return fmt.Errorf("apps: unknown app %q (valid: fig1, charmm, dsmc)", s.App)
	}
	if s.Elems <= 0 {
		return fmt.Errorf("apps: %s needs elems > 0, got %d", s.App, s.Elems)
	}
	if s.CrashRank < 0 {
		// The upper bound is the launcher's to check: a spec does not fix
		// the rank count (a cluster job's changes across restarts).
		return fmt.Errorf("apps: crash_rank must not be negative, got %d", s.CrashRank)
	}
	return nil
}

// Result is one rank's outcome. Checksum is global (identical across
// ranks): the charmm/dsmc application checksum, or for fig1 the
// all-reduced sum of the accumulated owned sections. MaxErr is fig1's
// global max |error| against the sequential loop (zero for the apps).
type Result struct {
	Checksum float64
	MaxErr   float64
}

// Run executes one rank's share of the spec'd application. Collective:
// every rank of the mesh must call it with the same spec. The spec must be
// Normalized and Valid; a bad spec panics like any other programming error
// in this codebase.
func Run(p *comm.Proc, s Spec) Result {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	switch s.App {
	case "fig1":
		return runFig1(p, s)
	case "charmm":
		cfg := charmm.ConfigForAtoms(s.Elems)
		cfg.Steps = s.Steps
		cfg.NBEvery = 3
		cfg.CheckpointDir = s.CheckpointDir
		cfg.CheckpointEvery = s.CheckpointEvery
		cfg.ResumeFrom = s.ResumeFrom
		cfg.CrashStep = s.CrashStep
		cfg.CrashRank = s.CrashRank
		res := charmm.Run(p, cfg)
		p.Barrier()
		return Result{Checksum: res.Checksum}
	case "dsmc":
		cfg := dsmc.Default2D(24)
		cfg.NMols = s.Elems
		cfg.Steps = s.Steps
		cfg.RemapEvery = 4
		cfg.Partitioner = "rcb"
		cfg.InitSlabFrac = 0.5
		cfg.CheckpointDir = s.CheckpointDir
		cfg.CheckpointEvery = s.CheckpointEvery
		cfg.ResumeFrom = s.ResumeFrom
		cfg.CrashStep = s.CrashStep
		cfg.CrashRank = s.CrashRank
		res := dsmc.Run(p, cfg)
		p.Barrier()
		return Result{Checksum: res.Checksum}
	}
	panic("apps: unreachable")
}

// runFig1 runs the Figure 1 irregular loop through the full CHAOS pipeline
// (block distribution, stamped-hash-table inspector, merged schedule,
// gather/compute/scatter-add executor) and validates the owned section
// against the sequential loop. The returned checksum is the global sum of
// the accumulated array — invariant across rank counts.
func runFig1(p *comm.Proc, s Spec) Result {
	elems, iters := s.Elems, s.Iters
	// Deterministic shared problem: the Figure 1 loop.
	ia := make([]int32, iters)
	ib := make([]int32, iters)
	for i := range ia {
		ia[i] = int32((i*37 + 11) % elems)
		ib[i] = int32((i*61 + 29) % elems)
	}
	want := make([]float64, elems)
	for i := 0; i < iters; i++ {
		want[ia[i]] += float64(ib[i]) * 0.5
	}

	rt := core.NewRuntime(p)
	d := rt.BlockDist(elems)
	x := make([]float64, d.NLocal())
	y := make([]float64, d.NLocal())
	for i, g := range d.Globals() {
		y[i] = float64(g) * 0.5
	}
	lo, hi := partition.BlockRange(p.Rank(), iters, p.Size())
	ht := d.NewHashTable()
	sa, sb := ht.NewStamp(), ht.NewStamp()
	la := ht.Hash(ia[lo:hi], sa)
	lb := ht.Hash(ib[lo:hi], sb)
	sched := schedule.Build(p, ht, sa|sb, 0)

	buf := make([]float64, sched.MinLen())
	copy(buf, y)
	schedule.Gather(p, sched, buf)
	acc := make([]float64, sched.MinLen())
	copy(acc, x)
	for k := range la {
		acc[la[k]] += buf[lb[k]]
	}
	p.ComputeFlops(len(la))
	schedule.Scatter(p, sched, acc, schedule.OpAdd)

	maxErr, sum := 0.0, 0.0
	for i, g := range d.Globals() {
		if e := math.Abs(acc[i] - want[g]); e > maxErr {
			maxErr = e
		}
		sum += acc[i]
	}
	worst := p.AllReduceScalarF64(comm.OpMax, maxErr)
	total := p.AllReduceScalarF64(comm.OpSum, sum)
	p.Barrier()
	return Result{Checksum: total, MaxErr: worst}
}
