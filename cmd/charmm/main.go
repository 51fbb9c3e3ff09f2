// Command charmm runs the parallel mini-CHARMM molecular dynamics
// application on the simulated machine and reports the paper's Table 1
// metrics plus the preprocessing breakdown of Table 2.
//
// Usage:
//
//	charmm [-procs N] [-atoms N] [-steps N] [-nbevery N] [-part rcb|rib|chain|block]
//	       [-multiple] [-compiled] [-remap N|static|policy] [-adapt-verify]
//	       [-ckpt-dir DIR -ckpt-every N] [-resume DIR|latest] [-crash-step N -crash-rank R]
//	       [-rank R -addrs HOST:PORT,... [-timeout D] [-fault-plan PLAN]]
//	       [-kernel] [-measure] [-trace] [-cpuprofile FILE] [-memprofile FILE]
//
// -remap repartitions the atoms every N steps (0: only during setup, as
// under static) or when the online policy decides. The checkpoint, crash
// and -addrs flags are internal/launch's; -compiled writes no checkpoints.
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
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/adapt"
	"repro/internal/charmm"
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
	compiled := l.FS.Bool("compiled", false, "run the compiler-generated (loopir) version of the application")
	kernel := l.FS.Bool("kernel", false, "run Table 6's non-bonded force kernel (-steps iterations, redistributed every -remap) instead of the MD run")
	if code, ok := l.Parse(args); !ok {
		return code
	}

	cfg := charmm.ConfigForAtoms(*atoms)
	cfg.Steps, cfg.NBEvery, cfg.Partitioner, cfg.Merged = *steps, *nbevery, *part, !*multiple
	cfg.Remap, cfg.AdaptVerify, cfg.Recovery = l.Remap, l.AdaptVerify, l.Recovery
	err := cfg.Validate()
	l.FS.Visit(func(f *flag.Flag) { // refuse what the variant ignores or cannot honour
		switch {
		case *kernel && slices.Contains([]string{"multiple", "part", "nbevery", "ckpt-every", "resume", "crash-step"}, f.Name):
			err = fmt.Errorf("-kernel takes no -%s", f.Name)
		case *compiled && slices.Contains([]string{"multiple", "ckpt-every", "resume"}, f.Name):
			err = fmt.Errorf("-compiled takes no -%s", f.Name)
		}
	})
	if err == nil {
		err = cfg.CheckResume("charmm", int64(cfg.NAtoms))
	}
	if err != nil {
		return l.Refuse(err)
	}
	if *kernel {
		return runKernel(l, cfg, *compiled, stdout)
	}
	runner, kind := charmm.Run, "hand-parallelized"
	if *compiled {
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
	if mode := adapt.Mode(cfg.Remap); mode != "" {
		tail = fmt.Sprintf("  adapt mode          : %s (remapped at steps %v)\n", mode, results[l.Rank].RemapSteps)
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
	remapEvery, err := strconv.Atoi(cfg.Remap)
	if err != nil {
		return l.Refuse(fmt.Errorf("-kernel redistributes every N iterations: -remap %q is not a step count", cfg.Remap))
	}
	kcfg.NAtoms, kcfg.Iters, kcfg.RemapEvery = cfg.NAtoms, cfg.Steps, remapEvery
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
