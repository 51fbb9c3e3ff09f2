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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

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
func resolveResume(arg, base string) (string, error) {
	if arg != "latest" {
		return arg, nil
	}
	if base == "" {
		return "", errors.New("-resume latest requires -ckpt-dir")
	}
	dir, ok := checkpoint.Latest(base)
	if !ok {
		return "", fmt.Errorf("no sealed checkpoint under %s", base)
	}
	return dir, nil
}

// configError runs the application's validator, which panics on a bad
// configuration, and returns what it complained about (nil when it passed).
func configError(validate func()) (complaint any) {
	defer func() { complaint = recover() }()
	validate()
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "number of simulated processors")
	nx := fs.Int("nx", 48, "cells along x")
	ny := fs.Int("ny", 48, "cells along y")
	nz := fs.Int("nz", 1, "cells along z (1 = 2-D)")
	mols := fs.Int("mols", 0, "molecules (0 = 8 per cell)")
	steps := fs.Int("steps", 50, "time steps")
	mover := fs.String("mover", "light", "MOVE implementation: light, regular, compiler")
	part := fs.String("part", "block", "partitioner for remapping")
	remapEvery := fs.Int("remap", 0, "remap cells every N steps (0 = static)")
	adaptMode := fs.String("adapt", "", "remap trigger: static, periodic:N or policy (overrides -remap)")
	adaptVerify := fs.Bool("adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	slab := fs.Float64("slab", 1.0, "initial x-extent fraction holding all molecules")
	doTrace := fs.Bool("trace", false, "print a virtual-time Gantt chart and phase summary")
	ckptDir := fs.String("ckpt-dir", "", "directory for periodic checkpoints")
	ckptEvery := fs.Int("ckpt-every", 0, "checkpoint every N steps (0 = never)")
	resume := fs.String("resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	crashStep := fs.Int("crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	crashRank := fs.Int("crash-rank", 0, "rank that crashes at -crash-step")
	measure := fs.Bool("measure", false, "run in measured wall-clock mode (real phase timers alongside virtual time)")
	startProfiles := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageError := func(complaint any) int {
		fmt.Fprintf(stderr, "dsmc: %s\n", strings.TrimPrefix(fmt.Sprint(complaint), "dsmc: "))
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	if *procs < 1 {
		return usageError(fmt.Sprintf("-procs must be at least 1, got %d", *procs))
	}

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
		dir, err := resolveResume(*resume, *ckptDir)
		if err != nil {
			return usageError(err)
		}
		cfg.ResumeFrom = dir
	}
	if complaint := configError(cfg.Validate); complaint != nil {
		return usageError(complaint)
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

	fmt.Fprintf(stdout, "mini-DSMC: %dx%dx%d cells, %d molecules, %d steps, mover=%s part=%s remap=%d\n",
		cfg.NX, cfg.NY, cfg.NZ, cfg.NMols, cfg.Steps, cfg.Mover, cfg.Partitioner, cfg.RemapEvery)
	if cfg.Adapt != "" {
		fmt.Fprintf(stdout, "  adapt mode          : %s (remapped after steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	fmt.Fprintf(stdout, "  processors          : %d\n", *procs)
	fmt.Fprintf(stdout, "  execution time      : %10.3f virtual s (wall %.2fs)\n", rep.MaxClock(), rep.Wall.Seconds())
	fmt.Fprintf(stdout, "  computation time    : %10.3f virtual s (mean)\n", rep.MeanComputeTime())
	fmt.Fprintf(stdout, "  communication time  : %10.3f virtual s (mean)\n", rep.MeanCommTime())
	fmt.Fprintf(stdout, "  load balance index  : %10.3f\n", rep.LoadBalance())
	fmt.Fprintf(stdout, "  messages / volume   : %d msgs, %.2f MB\n", rep.TotalMsgsSent(), float64(rep.TotalBytesSent())/1e6)
	fmt.Fprintf(stdout, "  state checksum      : %.9f\n", results[0].Checksum)
	if *measure {
		fmt.Fprintf(stdout, "  measured wall       : %10.3f s (max over ranks, %d workers)\n", rep.MaxMeasuredWall(), rep.Workers)
		fmt.Fprintf(stdout, "  measured comm wait  : %10.3f s (mean over ranks)\n", rep.MeanMeasuredCommWall())
	}

	phases := map[string]float64{}
	for _, r := range results {
		for k, v := range r.Phases {
			if v > phases[k] {
				phases[k] = v
			}
		}
	}
	var keys []string
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *measure {
		fmt.Fprintln(stdout, "  phase breakdown (max over ranks: virtual s | measured s):")
		for _, k := range keys {
			fmt.Fprintf(stdout, "    %-10s %10.3f  %10.4f\n", k, phases[k], rep.MeasuredPhaseMax(k))
		}
	} else {
		fmt.Fprintln(stdout, "  phase breakdown (max over ranks, virtual s):")
		for _, k := range keys {
			fmt.Fprintf(stdout, "    %-10s %10.3f\n", k, phases[k])
		}
	}

	if *doTrace {
		spans := make([][]core.Span, len(results))
		for r, res := range results {
			spans[r] = res.Spans
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Gantt(spans, 100))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.RenderSummary(spans))
	}
	return 0
}
