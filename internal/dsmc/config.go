// Package dsmc implements a miniature Direct Simulation Monte Carlo
// particle-in-cell code with the computational structure of the paper's
// DSMC application (§2.2, Figure 3): a cartesian grid of cells in 2-D or
// 3-D, molecules in free flight between cells, a MOVE phase that migrates
// molecule records to the owners of their new cells every time step, and a
// per-cell collision phase.
//
// Two MOVE implementations are provided, matching Table 4:
//
//   - MoverLight: light-weight schedules + scatter_append (counts-only
//     exchange, no index translation or permutation lists);
//   - MoverRegular: full regular schedules, where each molecule is assigned
//     a placement slot in a global new_cells array, destination slots are
//     translated, and a schedule with permutation lists is rebuilt every
//     time step.
//
// The collision physics is deliberately order-independent (cell members are
// sorted by molecule id before deterministic pair selection), so the final
// state is identical — bit for bit — across processor counts and mover
// implementations, which the tests exploit.
package dsmc

import (
	"errors"
	"fmt"

	"repro/internal/adapt"
	"repro/internal/partition"
)

// Mover selects the MOVE-phase implementation.
type Mover string

// MOVE implementations.
const (
	MoverLight   Mover = "light"
	MoverRegular Mover = "regular"
	// MoverCompiler is the compiler-generated MOVE of Figure 11: the
	// REDUCE(APPEND) intrinsic lowered by loopir, followed by the generated
	// new_size recomputation loops (extra communication; Table 7).
	MoverCompiler Mover = "compiler"
)

// Config parameterizes one DSMC run. The domain is [0,NX)x[0,NY)x[0,NZ)
// with unit-sized cells and periodic boundaries; NZ=1 selects 2-D.
type Config struct {
	NX, NY, NZ int
	// NMols is the total number of molecules.
	NMols int
	// Steps is the number of time steps.
	Steps int
	// Dt is the free-flight time step (cells per step at unit speed).
	Dt float64
	// Drift is the mean +x velocity. The paper observed more than 70% of
	// molecules moving along +x; Drift above one Sigma reproduces that.
	Drift float64
	// Sigma is the thermal velocity spread. Small Sigma relative to Drift
	// keeps a molecule concentration coherent as it translates, sustaining
	// the load imbalance that motivates periodic remapping (Table 5).
	Sigma float64
	// InitSlabFrac places molecules initially in x in [0, frac*NX):
	// 1.0 gives the deliberately uniform load of Table 4, 0.5 the moving
	// concentration that degrades static partitions in Table 5.
	InitSlabFrac float64
	// Seed drives all random generation.
	Seed int64
	// Mover selects the MOVE-phase implementation.
	Mover Mover
	// SlotCap is the per-cell slot capacity of the regular mover's global
	// new_cells array.
	SlotCap int
	// RemapEvery repartitions cells every RemapEvery steps (0 = static).
	RemapEvery int
	// Adapt selects how remapping is triggered: "" leaves RemapEvery in
	// charge (the historical knob), "static" never remaps beyond the
	// initial partition, "periodic:N" remaps every N steps, and "policy"
	// lets the adapt.Policy engine decide online from AllReduce'd per-step
	// compute costs. "static" and "policy" override RemapEvery.
	Adapt string
	// AdaptVerify enables the policy engine's cross-rank agreement check:
	// every decision's inputs are fingerprint-AllReduce'd and a divergence
	// panics instead of silently desynchronizing remap schedules.
	AdaptVerify bool
	// Partitioner: "block", "rcb", "rib" or "chain" (chain along x).
	Partitioner string
	// CollideFlops is the modeled arithmetic per molecule in the collision
	// phase (0 selects the 2-D default). The 3-D production kernel does
	// substantially more work per molecule (3-D cross sections, more
	// collision candidates), which Default3D reflects.
	CollideFlops int
	// CheckpointEvery, when positive, writes a checkpoint of the full
	// distributed state under CheckpointDir every CheckpointEvery steps.
	CheckpointEvery int
	// CheckpointDir is the base directory checkpoints are written under.
	CheckpointDir string
	// ResumeFrom, when non-empty, restores from the given checkpoint
	// directory instead of generating molecules, then continues from the
	// saved step. The run may use a different processor count than the one
	// that wrote the checkpoint (elastic restart).
	ResumeFrom string
	// CrashStep, when positive, makes rank CrashRank panic at the start of
	// that step — fault injection for crash-recovery tests and demos.
	CrashStep int
	// CrashRank selects the rank that crashes at CrashStep.
	CrashRank int
}

// collideCost returns the effective per-molecule collision flops.
func (c Config) collideCost() int {
	if c.CollideFlops > 0 {
		return c.CollideFlops
	}
	return collideFlopsPerMol
}

// Validate reports an inconsistent configuration.
func (c Config) Validate() error {
	if c.NX < 1 || c.NY < 1 || c.NZ < 1 || c.NMols < 0 || c.Steps < 0 {
		return fmt.Errorf("dsmc: bad config %+v", c)
	}
	if c.Mover != MoverLight && c.Mover != MoverRegular && c.Mover != MoverCompiler {
		return errors.New("dsmc: unknown mover " + string(c.Mover))
	}
	if !partition.Known(c.Partitioner) {
		return errors.New("dsmc: unknown partitioner " + c.Partitioner)
	}
	if c.SlotCap < 1 {
		return errors.New("dsmc: SlotCap must be positive")
	}
	if c.InitSlabFrac <= 0 || c.InitSlabFrac > 1 {
		return errors.New("dsmc: InitSlabFrac must be in (0,1]")
	}
	if c.Sigma <= 0 {
		return errors.New("dsmc: Sigma must be positive")
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return errors.New("dsmc: CheckpointEvery set without CheckpointDir")
	}
	_, err := adapt.NewTrigger(c.Adapt, c.RemapEvery, c.AdaptVerify)
	return err
}

// mustValidate panics with Validate's complaint.
func (c Config) mustValidate() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// NCells returns the total cell count.
func (c Config) NCells() int { return c.NX * c.NY * c.NZ }

// Default2D returns the uniform-load 2-D configuration family of Table 4
// for the given grid edge (48 or 96 in the paper).
func Default2D(edge int) Config {
	return Config{
		NX: edge, NY: edge, NZ: 1,
		NMols:        8 * edge * edge,
		Steps:        50,
		Dt:           0.35,
		Drift:        0.8,
		Sigma:        1.0,
		InitSlabFrac: 1.0,
		Seed:         1994,
		Mover:        MoverLight,
		SlotCap:      48,
		Partitioner:  "block",
	}
}

// Default3D returns the 3-D configuration of Table 5: a molecule
// concentration initially in the low-x half of the domain drifting along
// +x, so static partitions lose load balance over time. The domain is long
// in the flow direction (as in the corner-flow problems the production DSMC
// code targets), giving the 1-D chain partitioner enough x-resolution to
// balance up to 128 processors.
func Default3D() Config {
	return Config{
		NX: 768, NY: 6, NZ: 4,
		NMols:        18000,
		Steps:        200,
		Dt:           0.25,
		Drift:        0.12,
		Sigma:        0.08,
		InitSlabFrac: 0.5,
		Seed:         1994,
		Mover:        MoverLight,
		SlotCap:      64,
		Partitioner:  "block",
		CollideFlops: 1500,
	}
}

// Modeled per-molecule work (virtual cost accounting). The collision kernel
// constant stands in for DSMC's candidate selection, cross-section
// evaluation and acceptance tests, which dominate per-molecule cost in the
// production code.
const (
	moveFlopsPerMol    = 25
	collideFlopsPerMol = 350
	collideMemPerMol   = 30
	recordWidth        = 7 // id, x, y, z, vx, vy, vz
)
