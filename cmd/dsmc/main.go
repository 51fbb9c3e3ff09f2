// Command dsmc runs the parallel mini-DSMC particle-in-cell application on
// the simulated machine: 2-D or 3-D grids, light-weight / regular /
// compiler-generated MOVE phases, and the remapping policies of Table 5.
//
// Usage:
//
//	dsmc [-procs N] [-nx N -ny N -nz N] [-mols N] [-steps N]
//	     [-mover light|regular|compiler] [-part block|rcb|rib|chain] [-remap N]
//	     [-adapt static|periodic:N|policy] [-adapt-verify]
//	     [-ckpt-dir DIR -ckpt-every N] [-resume DIR|latest]
//	     [-cpuprofile FILE] [-memprofile FILE]
//
// With -ckpt-dir and -ckpt-every the run writes periodic checkpoints;
// -resume continues from a checkpoint directory (or the latest sealed one
// under -ckpt-dir), at the same processor count for a bit-identical
// continuation or at a different one for an elastic restart.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dsmc"
	"repro/internal/launch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	l := launch.New("dsmc", stderr)
	nx := l.FS.Int("nx", 48, "cells along x")
	ny := l.FS.Int("ny", 48, "cells along y")
	nz := l.FS.Int("nz", 1, "cells along z (1 = 2-D)")
	mols := l.FS.Int("mols", 0, "molecules (0 = 8 per cell)")
	steps := l.FS.Int("steps", 50, "time steps")
	mover := l.FS.String("mover", "light", "MOVE implementation: light, regular, compiler")
	part := l.FS.String("part", "block", "partitioner for remapping")
	remapEvery := l.FS.Int("remap", 0, "remap cells every N steps (0 = static)")
	slab := l.FS.Float64("slab", 1.0, "initial x-extent fraction holding all molecules")
	if code, ok := l.Parse(args); !ok {
		return code
	}

	cfg := dsmc.Default2D(*nx)
	if *nz > 1 {
		cfg = dsmc.Default3D()
	}
	cfg.NX, cfg.NY, cfg.NZ = *nx, *ny, *nz
	cfg.NMols = *mols
	if *mols <= 0 {
		cfg.NMols = 8 * cfg.NCells()
	}
	cfg.Steps = *steps
	cfg.Mover = dsmc.Mover(*mover)
	cfg.Partitioner = *part
	cfg.RemapEvery = *remapEvery
	cfg.InitSlabFrac = *slab
	cfg.Adapt, cfg.AdaptVerify = l.Adapt, l.AdaptVerify
	cfg.CheckpointDir, cfg.CheckpointEvery, cfg.ResumeFrom = l.CkptDir, l.CkptEvery, l.Resume
	cfg.CrashStep, cfg.CrashRank = l.CrashStep, l.CrashRank
	if err := cfg.Validate(); err != nil {
		return l.Refuse(err)
	}

	results := make([]*dsmc.ProcResult, l.Procs)
	rep := l.Run(func(p *comm.Proc) { results[p.Rank()] = dsmc.Run(p, cfg) })

	head := fmt.Sprintf("mini-DSMC: %dx%dx%d cells, %d molecules, %d steps, mover=%s part=%s remap=%d\n",
		cfg.NX, cfg.NY, cfg.NZ, cfg.NMols, cfg.Steps, cfg.Mover, cfg.Partitioner, cfg.RemapEvery)
	if cfg.Adapt != "" {
		head += fmt.Sprintf("  adapt mode          : %s (remapped after steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	tail := fmt.Sprintf("  state checksum      : %.9f\n", results[0].Checksum)
	l.Report(stdout, rep, head, tail, 10, func(r int) (map[string]float64, []core.Span) {
		return results[r].Phases, results[r].Spans
	})
	return 0
}
