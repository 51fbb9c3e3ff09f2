// Command dsmc runs the parallel mini-DSMC particle-in-cell application on
// the simulated machine: 2-D or 3-D grids, light-weight / regular /
// compiler-generated MOVE phases, and the remapping policies of Table 5.
//
// Usage:
//
//	dsmc [-procs N] [-nx N -ny N -nz N] [-mols N] [-steps N]
//	     [-mover light|regular|compiler] [-part block|rcb|rib|chain]
//	     [-remap N|static|policy] [-adapt-verify]
//	     [-ckpt-dir DIR -ckpt-every N] [-resume DIR|latest] [-crash-step N -crash-rank R]
//	     [-rank R -addrs HOST:PORT,... [-timeout D] [-fault-plan PLAN]]
//	     [-measure] [-trace] [-cpuprofile FILE] [-memprofile FILE]
//
// -remap repartitions the cells by -part every N steps, once before the
// first step (static) or when the online policy decides. Under -remap 0 the
// cells keep their BLOCK distribution, so another -part is refused unless
// -resume is given (an elastic restore rebalances with it). The checkpoint,
// crash and -addrs flags are internal/launch's.
//
// Exit status: 2 for refused input (one "dsmc:" line and the usage), 1 on a
// transport error, 3 when a peer rank failed or the fault plan killed this
// one, 4 when a rank crashed (one "dsmc: rank R crashed:" line, then the
// stack).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/adapt"
	"repro/internal/comm"
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
	if *mols == 0 {
		cfg.NMols = 8 * cfg.NCells()
	}
	cfg.Steps, cfg.Mover, cfg.Partitioner, cfg.InitSlabFrac = *steps, dsmc.Mover(*mover), *part, *slab
	cfg.Remap, cfg.AdaptVerify, cfg.Recovery = l.Remap, l.AdaptVerify, l.Recovery
	err := cfg.Validate()
	if err == nil {
		err = cfg.CheckResume("dsmc", int64(cfg.NCells()))
	}
	if err == nil && cfg.Partitioner != "block" && adapt.Mode(cfg.Remap) == "" && cfg.ResumeFrom == "" {
		err = fmt.Errorf("-part %s has no effect without -remap: the cells keep their BLOCK distribution", cfg.Partitioner)
	}
	if err != nil {
		return l.Refuse(err)
	}

	results := make([]*dsmc.ProcResult, l.Procs)
	rep, code := l.Run(func(p *comm.Proc) { results[p.Rank()] = dsmc.Run(p, cfg) })
	if rep == nil {
		return code
	}

	head := fmt.Sprintf("mini-DSMC: %dx%dx%d cells, %d molecules, %d steps, mover=%s part=%s remap=%s\n",
		cfg.NX, cfg.NY, cfg.NZ, cfg.NMols, cfg.Steps, cfg.Mover, cfg.Partitioner, cfg.Remap)
	if mode := adapt.Mode(cfg.Remap); mode != "" {
		head += fmt.Sprintf("  adapt mode          : %s (remapped after steps %v)\n", mode, results[l.Rank].RemapSteps)
	}
	tail := fmt.Sprintf("  state checksum      : %.9f\n", results[l.Rank].Checksum)
	l.Report(stdout, rep, head, tail, 10)
	return 0
}
