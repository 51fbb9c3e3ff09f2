// Command charmm runs the parallel mini-CHARMM molecular dynamics
// application on the simulated machine and reports the paper's Table 1
// metrics plus the preprocessing breakdown of Table 2.
//
// Usage:
//
//	charmm [-procs N] [-atoms N] [-steps N] [-nbevery N] [-part rcb|rib|chain|block]
//	       [-multiple] [-compiled] [-remap N] [-adapt static|periodic:N|policy] [-adapt-verify]
//	       [-ckpt-dir DIR -ckpt-every N] [-resume DIR|latest]
//	       [-rank R -addrs HOST:PORT,... [-timeout D] [-fault-plan PLAN]]
//	       [-kernel] [-measure] [-trace] [-cpuprofile FILE] [-memprofile FILE]
//
// With -ckpt-dir and -ckpt-every the run writes periodic checkpoints;
// -resume continues from a checkpoint directory (or the latest sealed one
// under -ckpt-dir), at the same processor count for a bit-identical
// continuation or at a different one for an elastic restart.
//
// With -addrs the process runs rank -rank of a multi-process run over TCP,
// one process per address (see internal/launch).
//
// With -kernel the command runs Table 6's non-bonded force kernel instead
// of the MD run: -atoms atoms, -steps iterations, the data redistributed
// every -remap iterations by RCB and RIB alternately (0: never), the
// compiler-generated version under -compiled and the hand-coded one
// otherwise. Under -measure its per-rank table splits the run into the
// kernel's phases (setup, partition, remap, inspector, executor).
//
// Exit status: 2 for refused input (one "charmm:" line and the usage), 1 on
// a transport error, 3 when a peer rank failed or the fault plan killed this
// one, 4 when a rank crashed (one "charmm: rank R crashed:" line, then the
// stack).
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
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
	kernel := l.FS.Bool("kernel", false, "run Table 6's non-bonded force kernel (-steps iterations, redistributed every -remap) instead of the MD run")
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
	err := cfg.Validate()
	if err == nil && cfg.ResumeFrom != "" {
		_, err = checkpoint.Check(cfg.ResumeFrom, "charmm", int64(cfg.NAtoms))
	}
	if err == nil && *kernel && (l.CkptEvery > 0 || l.Resume != "" || l.Adapt != "" || l.CrashStep > 0) {
		err = errors.New("-kernel takes none of -ckpt-every, -resume, -adapt and -crash-step")
	}
	if err != nil {
		return l.Refuse(err)
	}
	if *kernel {
		return runKernel(l, cfg, *compiled, stdout)
	}
	runner, kind := charmm.Run, "hand-parallelized"
	if *compiled {
		if l.CkptEvery > 0 || l.Resume != "" {
			return l.Refuse(errors.New("checkpointing is not supported for the -compiled variant"))
		}
		runner, kind = charmm.RunCompiled, "compiler-generated"
	}

	results := make([]*charmm.ProcResult, l.Procs)
	rep, code := l.Run(func(p *comm.Proc) { results[p.Rank()] = runner(p, cfg) })
	if rep == nil {
		return code
	}

	head := fmt.Sprintf("mini-CHARMM (%s): %d atoms, %d steps, nb update every %d, partitioner=%s merged=%v\n",
		kind, cfg.NAtoms, cfg.Steps, cfg.NBEvery, cfg.Partitioner, cfg.Merged)
	tail := ""
	if cfg.Adapt != "" {
		tail = fmt.Sprintf("  adapt mode          : %s (remapped at steps %v)\n", cfg.Adapt, results[l.Rank].RemapSteps)
	}
	tail += fmt.Sprintf("  nb list entries     : %d\n", results[l.Rank].NBEntries)
	tail += fmt.Sprintf("  position checksum   : %.9f\n", results[l.Rank].Checksum)
	l.Report(stdout, rep, head, tail, 12)
	return 0
}

// runKernel runs Table 6's kernel over cfg's atoms, steps (iterations) and
// remap interval, and reports it like the MD run.
func runKernel(l *launch.Launcher, cfg charmm.Config, compiled bool, stdout io.Writer) int {
	kcfg := charmm.DefaultKernelConfig()
	kcfg.NAtoms, kcfg.Iters, kcfg.RemapEvery = cfg.NAtoms, cfg.Steps, cfg.RemapEvery
	runner, kind := charmm.RunKernelHand, "hand-coded"
	if compiled {
		runner, kind = charmm.RunKernelCompiled, "compiler-generated"
	}
	results := make([]*charmm.KernelResult, l.Procs)
	rep, code := l.Run(func(p *comm.Proc) { results[p.Rank()] = runner(p, kcfg) })
	if rep == nil {
		return code
	}

	head := fmt.Sprintf("Table 6 kernel (%s): %d atoms, %d iterations, remap every %d (RCB and RIB alternately)\n",
		kind, kcfg.NAtoms, kcfg.Iters, kcfg.RemapEvery)
	tail := fmt.Sprintf("  kernel checksum     : %.9f\n", results[l.Rank].Checksum)
	l.Report(stdout, rep, head, tail, 12)
	return 0
}
