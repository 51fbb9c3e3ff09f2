// Package charmm implements a miniature molecular-dynamics application with
// the computational structure of CHARMM (paper §2.1, Figure 2): a static
// bonded-force loop, a non-bonded force loop driven by a cutoff partner
// list that is regenerated periodically, and position integration. It is
// the substitute workload for the paper's MbCO + 3830 water benchmark
// (14026 atoms): same loop skeleton, synthetic molecular geometry.
//
// The package provides a sequential reference implementation (Reference)
// and a CHAOS-parallelized implementation (Run) following the paper's
// recipe: weighted RCB/RIB partitioning of atoms, almost-owner-computes
// partitioning of the bonded loop, stamped-hash-table inspectors, and
// merged or per-loop communication schedules.
package charmm

import (
	"math"

	"repro/internal/checkpoint"
)

// Config parameterizes one CHARMM-like simulation.
type Config struct {
	// NAtoms is the number of atoms. The paper's benchmark case has 14026.
	NAtoms int
	// box is the simulation box (reflecting walls).
	box [3]float64
	// Cutoff is the non-bonded interaction cutoff distance.
	Cutoff float64
	// Partners is the target average non-bonded partner count per atom
	// (controls the box volume). The paper's 14 Angstrom cutoff gives a few
	// hundred partners per atom; the default is scaled down for wall-clock
	// reasons but kept dense enough that inspector costs stay
	// compute-dominated, as on the real code.
	Partners float64
	// Steps is the number of time steps.
	Steps int
	// NBEvery regenerates the non-bonded list every NBEvery steps.
	NBEvery int
	// Remap selects when atoms are repartitioned, and the preprocessing
	// re-run: every N steps for a step count N ("", "0" and "static": only
	// during setup), or when the adapt.Policy engine decides ("policy").
	Remap string
	// AdaptVerify enables the policy engine's cross-rank agreement check.
	AdaptVerify bool
	// Dt is the integration step.
	Dt float64
	// Seed drives all random generation.
	Seed int64
	// Partitioner selects the phase-A partitioner: "block", "rcb", "rib"
	// or "chain".
	Partitioner string
	// AlternatePartitioners alternates RCB and RIB at successive remaps.
	AlternatePartitioners bool
	// Merged selects one merged schedule for the bonded and non-bonded
	// loops (true, the paper's preferred configuration) versus separate
	// per-loop schedules (false; the right half of Table 3).
	Merged bool
	checkpoint.Recovery
}

// DefaultConfig returns the benchmark configuration: 14026 atoms in a box
// sized for roughly two dozen non-bonded partners per atom, the non-bonded
// list regenerated 40 times over the run, RCB partitioning and merged
// schedules — the setup of Tables 1 and 2 (step counts scaled down; the
// shape of the results, not iPSC/860 wall seconds, is the target).
func DefaultConfig() Config {
	cfg := Config{
		NAtoms:      14026,
		Cutoff:      2.5,
		Partners:    150,
		Steps:       200,
		NBEvery:     5, // 40 regenerations, as in the paper's run
		Dt:          0.01,
		Seed:        1994,
		Partitioner: "rcb",
		Merged:      true,
	}
	cfg.box = boxFor(cfg.NAtoms, cfg.Cutoff, cfg.Partners)
	return cfg
}

// boxFor returns a cubic box in which n atoms at uniform density have about
// `partners` neighbours within the cutoff.
func boxFor(n int, cutoff float64, partners float64) [3]float64 {
	sphere := 4.0 / 3.0 * math.Pi * cutoff * cutoff * cutoff
	vol := float64(n) * sphere / partners
	edge := math.Cbrt(vol)
	return [3]float64{edge, edge, edge}
}

// scaled returns a copy of c with the atom count (and box) scaled, used by
// tests to shrink the workload.
func (c Config) scaled(nAtoms int) Config {
	c.NAtoms = nAtoms
	c.box = boxFor(nAtoms, c.Cutoff, c.Partners)
	return c
}

// ConfigForAtoms returns the default configuration rescaled to n atoms at
// the same particle density (same average non-bonded partner count).
func ConfigForAtoms(n int) Config { return DefaultConfig().scaled(n) }

// Force-model constants. The forces are smooth toy potentials: a repulsive
// quadratic-falloff pair force within the cutoff and harmonic bonds. They
// are not physical, but they have the same data-access and arithmetic
// structure as CHARMM's Van der Waals / electrostatic and bond terms.
const (
	pairStrength = 5.0
	bondK        = 50.0
	velDamping   = 0.995
)
