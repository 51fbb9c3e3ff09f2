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
	"flag"
	"fmt"
	"os"
	"sort"

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
func resolveResume(arg, base string) string {
	if arg != "latest" {
		return arg
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "charmm: -resume latest requires -ckpt-dir")
		os.Exit(2)
	}
	dir, ok := checkpoint.Latest(base)
	if !ok {
		fmt.Fprintf(os.Stderr, "charmm: no sealed checkpoint under %s\n", base)
		os.Exit(2)
	}
	return dir
}

func main() {
	procs := flag.Int("procs", 16, "number of simulated processors")
	atoms := flag.Int("atoms", 14026, "number of atoms")
	steps := flag.Int("steps", 200, "time steps")
	nbevery := flag.Int("nbevery", 5, "non-bonded list update interval")
	part := flag.String("part", "rcb", "partitioner: rcb, rib, chain, block")
	multiple := flag.Bool("multiple", false, "use per-loop schedules instead of merged")
	remapEvery := flag.Int("remap", 0, "repartition every N steps (0 = once at start)")
	adaptMode := flag.String("adapt", "", "remap trigger: static, periodic:N or policy (overrides -remap)")
	adaptVerify := flag.Bool("adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	doTrace := flag.Bool("trace", false, "print a virtual-time Gantt chart and phase summary")
	compiled := flag.Bool("compiled", false, "run the compiler-generated (loopir) version of the application")
	ckptDir := flag.String("ckpt-dir", "", "directory for periodic checkpoints")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every N steps (0 = never)")
	resume := flag.String("resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	crashStep := flag.Int("crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	crashRank := flag.Int("crash-rank", 0, "rank that crashes at -crash-step")
	measure := flag.Bool("measure", false, "run in measured wall-clock mode (real phase timers alongside virtual time)")
	overlap := flag.Bool("overlap", false, "split-phase collectives: overlap communication with interior computation")
	startProfiles := prof.Flags()
	flag.Parse()

	cfg := charmm.ConfigForAtoms(*atoms)
	cfg.Steps = *steps
	cfg.NBEvery = *nbevery
	cfg.Partitioner = *part
	cfg.Merged = !*multiple
	cfg.Overlap = *overlap
	cfg.RemapEvery = *remapEvery
	cfg.Adapt = *adaptMode
	cfg.AdaptVerify = *adaptVerify
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.CrashStep = *crashStep
	cfg.CrashRank = *crashRank
	if *resume != "" {
		cfg.ResumeFrom = resolveResume(*resume, *ckptDir)
	}

	runner := charmm.Run
	if *compiled {
		if *ckptEvery > 0 || *resume != "" {
			fmt.Fprintln(os.Stderr, "charmm: checkpointing is not supported for the -compiled variant")
			os.Exit(2)
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
	fmt.Printf("mini-CHARMM (%s): %d atoms, %d steps, nb update every %d, partitioner=%s merged=%v\n",
		kind, cfg.NAtoms, cfg.Steps, cfg.NBEvery, cfg.Partitioner, cfg.Merged)
	fmt.Printf("  processors          : %d\n", *procs)
	fmt.Printf("  execution time      : %10.3f virtual s (wall %.2fs)\n", rep.MaxClock(), rep.Wall.Seconds())
	fmt.Printf("  computation time    : %10.3f virtual s (mean)\n", rep.MeanComputeTime())
	fmt.Printf("  communication time  : %10.3f virtual s (mean)\n", rep.MeanCommTime())
	fmt.Printf("  load balance index  : %10.3f\n", rep.LoadBalance())
	fmt.Printf("  messages / volume   : %d msgs, %.2f MB\n", rep.TotalMsgsSent(), float64(rep.TotalBytesSent())/1e6)
	if cfg.Adapt != "" {
		fmt.Printf("  adapt mode          : %s (remapped at steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	fmt.Printf("  nb list entries     : %d\n", results[0].NBEntries)
	fmt.Printf("  position checksum   : %.9f\n", results[0].Checksum)
	if *measure {
		fmt.Printf("  measured wall       : %10.3f s (max over ranks, %d workers)\n", rep.MaxMeasuredWall(), rep.Workers)
		fmt.Printf("  measured comm wait  : %10.3f s (mean over ranks)\n", rep.MeanMeasuredCommWall())
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
			fmt.Printf("    %-12s %10.3f  %10.4f\n", k, phases[k], rep.MeasuredPhaseMax(k))
		}
	} else {
		fmt.Println("  phase breakdown (max over ranks, virtual s):")
		for _, k := range keys {
			fmt.Printf("    %-12s %10.3f\n", k, phases[k])
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
