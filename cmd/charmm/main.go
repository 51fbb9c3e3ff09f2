// Command charmm runs the parallel mini-CHARMM molecular dynamics
// application on the simulated machine and reports the paper's Table 1
// metrics plus the preprocessing breakdown of Table 2.
//
// Usage:
//
//	charmm [-procs N] [-atoms N] [-steps N] [-nbevery N] [-part rcb|rib|chain|block]
//	       [-multiple] [-remap N] [-adapt static|periodic:N|policy] [-adapt-verify]
//	       [-ckpt-dir DIR -ckpt-every N] [-resume DIR|latest]
//	       [-cpuprofile FILE] [-memprofile FILE]
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

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
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
	fs := flag.NewFlagSet("charmm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "number of simulated processors")
	atoms := fs.Int("atoms", 14026, "number of atoms")
	steps := fs.Int("steps", 200, "time steps")
	nbevery := fs.Int("nbevery", 5, "non-bonded list update interval")
	part := fs.String("part", "rcb", "partitioner: rcb, rib, chain, block")
	multiple := fs.Bool("multiple", false, "use per-loop schedules instead of merged")
	remapEvery := fs.Int("remap", 0, "repartition every N steps (0 = once at start)")
	adaptMode := fs.String("adapt", "", "remap trigger: static, periodic:N or policy (overrides -remap)")
	adaptVerify := fs.Bool("adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	doTrace := fs.Bool("trace", false, "print a virtual-time Gantt chart and phase summary")
	compiled := fs.Bool("compiled", false, "run the compiler-generated (loopir) version of the application")
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
		fmt.Fprintf(stderr, "charmm: %s\n", strings.TrimPrefix(fmt.Sprint(complaint), "charmm: "))
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	if *procs < 1 {
		return usageError(fmt.Sprintf("-procs must be at least 1, got %d", *procs))
	}

	cfg := charmm.ConfigForAtoms(*atoms)
	cfg.Steps = *steps
	cfg.NBEvery = *nbevery
	cfg.Partitioner = *part
	cfg.Merged = !*multiple
	cfg.RemapEvery = *remapEvery
	cfg.Adapt = *adaptMode
	cfg.AdaptVerify = *adaptVerify
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

	runner := charmm.Run
	if *compiled {
		if *ckptEvery > 0 || *resume != "" {
			return usageError("checkpointing is not supported for the -compiled variant")
		}
		runner = charmm.RunCompiled
	}
	results := make([]*charmm.ProcResult, *procs)
	body := func(p *comm.Proc) {
		results[p.Rank()] = runner(p, cfg)
	}
	var rep *comm.Report
	stopProfiles := startProfiles()
	if *measure {
		rep = comm.RunMeasured(*procs, costmodel.IPSC860(), body)
	} else {
		rep = comm.Run(*procs, costmodel.IPSC860(), body)
	}
	stopProfiles()

	kind := "hand-parallelized"
	if *compiled {
		kind = "compiler-generated"
	}
	fmt.Fprintf(stdout, "mini-CHARMM (%s): %d atoms, %d steps, nb update every %d, partitioner=%s merged=%v\n",
		kind, cfg.NAtoms, cfg.Steps, cfg.NBEvery, cfg.Partitioner, cfg.Merged)
	fmt.Fprintf(stdout, "  processors          : %d\n", *procs)
	fmt.Fprintf(stdout, "  execution time      : %10.3f virtual s (wall %.2fs)\n", rep.MaxClock(), rep.Wall.Seconds())
	fmt.Fprintf(stdout, "  computation time    : %10.3f virtual s (mean)\n", rep.MeanComputeTime())
	fmt.Fprintf(stdout, "  communication time  : %10.3f virtual s (mean)\n", rep.MeanCommTime())
	fmt.Fprintf(stdout, "  load balance index  : %10.3f\n", rep.LoadBalance())
	fmt.Fprintf(stdout, "  messages / volume   : %d msgs, %.2f MB\n", rep.TotalMsgsSent(), float64(rep.TotalBytesSent())/1e6)
	if cfg.Adapt != "" {
		fmt.Fprintf(stdout, "  adapt mode          : %s (remapped at steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	fmt.Fprintf(stdout, "  nb list entries     : %d\n", results[0].NBEntries)
	fmt.Fprintf(stdout, "  position checksum   : %.9f\n", results[0].Checksum)
	if *measure {
		fmt.Fprintf(stdout, "  measured wall       : %10.3f s (max over ranks, %d workers)\n", rep.MaxMeasuredWall(), rep.Workers)
		fmt.Fprintf(stdout, "  measured comm wait  : %10.3f s (mean over ranks)\n", rep.MeanMeasuredCommWall())
	}

	// Preprocessing breakdown (max over ranks).
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
			fmt.Fprintf(stdout, "    %-12s %10.3f  %10.4f\n", k, phases[k], rep.MeasuredPhaseMax(k))
		}
	} else {
		fmt.Fprintln(stdout, "  phase breakdown (max over ranks, virtual s):")
		for _, k := range keys {
			fmt.Fprintf(stdout, "    %-12s %10.3f\n", k, phases[k])
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
