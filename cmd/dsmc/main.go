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
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
	"repro/internal/prof"
	"repro/internal/trace"
)

// resolveResume turns the -resume argument into a checkpoint directory,
// resolving the special value "latest" against -ckpt-dir.
func resolveResume(arg, base string) string {
	if arg != "latest" {
		return arg
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "dsmc: -resume latest requires -ckpt-dir")
		os.Exit(2)
	}
	dir, ok := checkpoint.Latest(base)
	if !ok {
		fmt.Fprintf(os.Stderr, "dsmc: no sealed checkpoint under %s\n", base)
		os.Exit(2)
	}
	return dir
}

func main() {
	procs := flag.Int("procs", 16, "number of simulated processors")
	nx := flag.Int("nx", 48, "cells along x")
	ny := flag.Int("ny", 48, "cells along y")
	nz := flag.Int("nz", 1, "cells along z (1 = 2-D)")
	mols := flag.Int("mols", 0, "molecules (0 = 8 per cell)")
	steps := flag.Int("steps", 50, "time steps")
	mover := flag.String("mover", "light", "MOVE implementation: light, regular, compiler")
	part := flag.String("part", "block", "partitioner for remapping")
	remapEvery := flag.Int("remap", 0, "remap cells every N steps (0 = static)")
	adaptMode := flag.String("adapt", "", "remap trigger: static, periodic:N or policy (overrides -remap)")
	adaptVerify := flag.Bool("adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	slab := flag.Float64("slab", 1.0, "initial x-extent fraction holding all molecules")
	doTrace := flag.Bool("trace", false, "print a virtual-time Gantt chart and phase summary")
	ckptDir := flag.String("ckpt-dir", "", "directory for periodic checkpoints")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every N steps (0 = never)")
	resume := flag.String("resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	crashStep := flag.Int("crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	crashRank := flag.Int("crash-rank", 0, "rank that crashes at -crash-step")
	measure := flag.Bool("measure", false, "run in measured wall-clock mode (real phase timers alongside virtual time)")
	overlap := flag.Bool("overlap", false, "split-phase collectives: overlap the regular mover's scatter with slot fills")
	startProfiles := prof.Flags()
	flag.Parse()

	cfg := dsmc.Default2D(*nx)
	cfg.NX, cfg.NY, cfg.NZ = *nx, *ny, *nz
	if *nz > 1 {
		base := dsmc.Default3D()
		base.NX, base.NY, base.NZ = *nx, *ny, *nz
		cfg = base
	}
	if *mols > 0 {
		cfg.NMols = *mols
	} else {
		cfg.NMols = 8 * cfg.NCells()
	}
	cfg.Steps = *steps
	cfg.Mover = dsmc.Mover(*mover)
	cfg.Overlap = *overlap
	cfg.Partitioner = *part
	cfg.RemapEvery = *remapEvery
	cfg.Adapt = *adaptMode
	cfg.AdaptVerify = *adaptVerify
	cfg.InitSlabFrac = *slab
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.CrashStep = *crashStep
	cfg.CrashRank = *crashRank
	if *resume != "" {
		cfg.ResumeFrom = resolveResume(*resume, *ckptDir)
	}

	results := make([]*dsmc.ProcResult, *procs)
	body := func(p *comm.Proc) {
		results[p.Rank()] = dsmc.Run(p, cfg)
	}
	var rep *comm.Report
	stopProfiles := startProfiles()
	if *measure {
		rep = comm.RunMeasured(*procs, costmodel.IPSC860(), body)
	} else {
		rep = comm.Run(*procs, costmodel.IPSC860(), body)
	}
	stopProfiles()

	fmt.Printf("mini-DSMC: %dx%dx%d cells, %d molecules, %d steps, mover=%s part=%s remap=%d\n",
		cfg.NX, cfg.NY, cfg.NZ, cfg.NMols, cfg.Steps, cfg.Mover, cfg.Partitioner, cfg.RemapEvery)
	if cfg.Adapt != "" {
		fmt.Printf("  adapt mode          : %s (remapped after steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	fmt.Printf("  processors          : %d\n", *procs)
	fmt.Printf("  execution time      : %10.3f virtual s (wall %.2fs)\n", rep.MaxClock(), rep.Wall.Seconds())
	fmt.Printf("  computation time    : %10.3f virtual s (mean)\n", rep.MeanComputeTime())
	fmt.Printf("  communication time  : %10.3f virtual s (mean)\n", rep.MeanCommTime())
	fmt.Printf("  load balance index  : %10.3f\n", rep.LoadBalance())
	fmt.Printf("  messages / volume   : %d msgs, %.2f MB\n", rep.TotalMsgsSent(), float64(rep.TotalBytesSent())/1e6)
	fmt.Printf("  state checksum      : %.9f\n", results[0].Checksum)
	if *measure {
		fmt.Printf("  measured wall       : %10.3f s (max over ranks, %d workers)\n", rep.MaxMeasuredWall(), rep.Workers)
		fmt.Printf("  measured comm wait  : %10.3f s (mean over ranks)\n", rep.MeanMeasuredCommWall())
	}

	phases := map[string]float64{}
	for _, r := range results {
		for k, v := range r.Phases {
			if v > phases[k] {
				phases[k] = v
			}
		}
	}
	if *measure {
		// Measured-only phases (the overlap windows charge no virtual
		// time) must still get a row.
		for _, m := range rep.Measured {
			for k := range m.Phases {
				if _, ok := phases[k]; !ok {
					phases[k] = 0
				}
			}
		}
	}
	var keys []string
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *measure {
		fmt.Println("  phase breakdown (max over ranks: virtual s | measured s):")
		for _, k := range keys {
			fmt.Printf("    %-10s %10.3f  %10.4f\n", k, phases[k], rep.MeasuredPhaseMax(k))
		}
	} else {
		fmt.Println("  phase breakdown (max over ranks, virtual s):")
		for _, k := range keys {
			fmt.Printf("    %-10s %10.3f\n", k, phases[k])
		}
	}

	if *doTrace {
		spans := make([][]core.Span, len(results))
		for r, res := range results {
			spans[r] = res.Spans
		}
		fmt.Println()
		fmt.Print(trace.Gantt(spans, 100))
		fmt.Println()
		fmt.Print(trace.RenderSummary(spans))
	}
}
