// Command fortd compiles and runs a Fortran-D-subset program (the paper's
// §5 language support) on the simulated distributed-memory machine: it
// parses the source, lowers every FORALL/REDUCE nest to CHAOS
// inspector/executor code, instantiates the program on N simulated
// processors with synthetic data, runs it for the requested number of
// steps, and reports per-loop inspector activity and result checksums.
//
// Usage:
//
//	fortd [-procs N] [-steps N] [-degree D] [-redistribute N] [-O] program.fd
//	fortd -vet [-json] program.fd
//
// -O applies the program-level optimization plan (schedule reuse across
// FORALLs, inspector hoisting out of DO time loops, message fusion, fused
// append data motion); the default is the naive per-loop lowering (-O0).
// -vet runs the same dataflow analyses and reports each opportunity as a
// positioned diagnostic instead of executing the program.
//
// Synthetic data: every REAL array element is initialized from its global
// index; CSR indirection rows get D pseudo-random partners; flat
// indirection entries map to pseudo-random rows of the append target.
// -redistribute N re-partitions every MAP-distributed decomposition
// round-robin every N steps, exercising the generated re-preprocessing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/fortd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fortd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 4, "number of simulated processors")
	steps := fs.Int("steps", 3, "number of Step() executions")
	degree := fs.Int("degree", 4, "partners per CSR indirection row")
	redist := fs.Int("redistribute", 0, "redistribute MAP decompositions every N steps (0 = never)")
	optimize := fs.Bool("O", false, "apply program-level optimizations (schedule reuse, hoisting, fusion)")
	vet := fs.Bool("vet", false, "report program-level analysis diagnostics and exit")
	jsonOut := fs.Bool("json", false, "with -vet, emit diagnostics as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fortd [-procs N] [-steps N] [-degree D] [-redistribute N] [-O] program.fd")
		fmt.Fprintln(stderr, "       fortd -vet [-json] program.fd")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageError := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fortd: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *vet {
		for _, name := range []string{"O", "procs", "steps", "degree", "redistribute"} {
			if set[name] {
				return usageError("-%s sets how the program runs; -vet does not run it", name)
			}
		}
	}
	switch {
	case fs.NArg() != 1:
		return usageError("want exactly one program file, got %d argument(s)", fs.NArg())
	case *jsonOut && !*vet:
		return usageError("-json formats -vet's findings; give it with -vet")
	case *procs < 1:
		return usageError("-procs must be at least 1, got %d", *procs)
	case *steps < 1:
		return usageError("-steps must be at least 1, got %d", *steps)
	case *degree < 0:
		return usageError("-degree must not be negative, got %d", *degree)
	case *redist < 0:
		return usageError("-redistribute must not be negative, got %d", *redist)
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(stderr, "fortd:", err)
		return 1
	}
	prog, err := fortd.CompileFile(file, string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *vet {
		diags := prog.Vet()
		if *jsonOut {
			if diags == nil {
				diags = []fortd.Diag{} // no findings encode as [], not null
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(diags); err != nil {
				fmt.Fprintln(stderr, "fortd:", err)
				return 1
			}
			return 0
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stdout, "%d finding(s)\n", len(diags))
		return 0
	}
	fmt.Fprintf(stdout, "compiled %s: %d FORALL nest(s)\n", file, prog.NumLoops())

	type summary struct {
		checks map[string]float64
		insp   []int
		builds int
	}
	results := make([]*summary, *procs)
	rep := comm.Run(*procs, costmodel.IPSC860(), func(p *comm.Proc) {
		var in *fortd.Instance
		if *optimize {
			in = prog.InstantiateOptimized(p)
		} else {
			in = prog.Instantiate(p)
		}
		in.InitSynthetic(*degree)
		for s := 1; s <= *steps; s++ {
			if *redist > 0 && s%*redist == 0 {
				for _, name := range prog.MapDecompositions() {
					dec := in.Decomposition(name)
					owners := make([]int32, dec.NLocal())
					for i, g := range dec.Globals() {
						owners[i] = (g + int32(s)) % int32(p.Size())
					}
					in.Redistribute(name, owners)
				}
			}
			appends := in.Step()
			if p.Rank() == 0 && len(appends) > 0 && s == *steps {
				for _, a := range appends {
					fmt.Fprintf(stdout, "  append loop %d: rank 0 received %d records\n",
						a.Loop, len(a.Records))
				}
			}
		}
		sum := &summary{checks: map[string]float64{}}
		for _, name := range prog.RealNames() {
			local := 0.0
			for _, v := range in.Real(name).Local() {
				local += math.Abs(v)
			}
			sum.checks[name] = p.AllReduceScalarF64(comm.OpSum, local)
		}
		for i := 0; i < prog.NumSumLoops(); i++ {
			sum.insp = append(sum.insp, in.Inspections(i))
		}
		sum.builds = in.InspectorBuilds()
		results[p.Rank()] = sum
	})

	fmt.Fprintf(stdout, "ran %d step(s) on %d processors: %.4f virtual s (wall %v)\n",
		*steps, *procs, rep.MaxClock(), rep.Wall)
	var names []string
	for name := range results[0].checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  checksum %-10s %18.9f\n", name, results[0].checks[name])
	}
	for i, n := range results[0].insp {
		fmt.Fprintf(stdout, "  sum loop %d: inspector ran %d time(s) over %d step(s)\n", i, n, *steps)
	}
	mode := "-O0"
	if *optimize {
		mode = "-O"
	}
	fmt.Fprintf(stdout, "  %s: %d inspector build(s), inspector %.4f virtual s, executor %.4f virtual s\n",
		mode, results[0].builds, rep.Phases[0]["inspector"], rep.Phases[0]["executor"])
	return 0
}
