// Command charmm runs the parallel mini-CHARMM molecular dynamics
// application on the simulated machine and reports the paper's Table 1
// metrics plus the preprocessing breakdown of Table 2.
//
// Usage:
//
//	charmm [-procs N] [-atoms N] [-steps N] [-nbevery N] [-part rcb|rib|chain|block]
//	       [-multiple] [-compiled] [-remap N] [-adapt static|periodic:N|policy] [-adapt-verify]
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
	"fmt"
	"io"
	"os"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/launch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	l := launch.New("charmm", stderr)
	atoms := l.FS.Int("atoms", 14026, "number of atoms")
	steps := l.FS.Int("steps", 200, "time steps")
	nbevery := l.FS.Int("nbevery", 5, "non-bonded list update interval")
	part := l.FS.String("part", "rcb", "partitioner: rcb, rib, chain, block")
	multiple := l.FS.Bool("multiple", false, "use per-loop schedules instead of merged")
	remapEvery := l.FS.Int("remap", 0, "repartition every N steps (0 = once at start)")
	compiled := l.FS.Bool("compiled", false, "run the compiler-generated (loopir) version of the application")
	if code, ok := l.Parse(args); !ok {
		return code
	}

	cfg := charmm.ConfigForAtoms(*atoms)
	cfg.Steps = *steps
	cfg.NBEvery = *nbevery
	cfg.Partitioner = *part
	cfg.Merged = !*multiple
	cfg.RemapEvery = *remapEvery
	cfg.Adapt, cfg.AdaptVerify = l.Adapt, l.AdaptVerify
	cfg.CheckpointDir, cfg.CheckpointEvery, cfg.ResumeFrom = l.CkptDir, l.CkptEvery, l.Resume
	cfg.CrashStep, cfg.CrashRank = l.CrashStep, l.CrashRank
	if err := cfg.Validate(); err != nil {
		return l.Refuse(err)
	}
	runner, kind := charmm.Run, "hand-parallelized"
	if *compiled {
		if l.CkptEvery > 0 || l.Resume != "" {
			return l.Refuse(errors.New("checkpointing is not supported for the -compiled variant"))
		}
		runner, kind = charmm.RunCompiled, "compiler-generated"
	}

	results := make([]*charmm.ProcResult, l.Procs)
	rep := l.Run(func(p *comm.Proc) { results[p.Rank()] = runner(p, cfg) })

	head := fmt.Sprintf("mini-CHARMM (%s): %d atoms, %d steps, nb update every %d, partitioner=%s merged=%v\n",
		kind, cfg.NAtoms, cfg.Steps, cfg.NBEvery, cfg.Partitioner, cfg.Merged)
	tail := ""
	if cfg.Adapt != "" {
		tail = fmt.Sprintf("  adapt mode          : %s (remapped at steps %v)\n", cfg.Adapt, results[0].RemapSteps)
	}
	tail += fmt.Sprintf("  nb list entries     : %d\n", results[0].NBEntries)
	tail += fmt.Sprintf("  position checksum   : %.9f\n", results[0].Checksum)
	l.Report(stdout, rep, head, tail, 12, func(r int) (map[string]float64, []core.Span) {
		return results[r].Phases, results[r].Spans
	})
	return 0
}
