// Command tables regenerates every table of the paper's evaluation section
// (Tables 1-7) on the simulated iPSC/860-like machine and prints them, or
// writes them as markdown for EXPERIMENTS.md.
//
// Usage:
//
//	tables [-quick] [-table 1..7|loopir|adapt|cluster] [-markdown | -json]
//
// Without -table, Tables 1-7 run. -table picks one table by name: a paper
// table by number, loopir (the fortd -O0 vs -O schedule-reuse table), adapt
// (static, periodic and policy-driven remapping across three DSMC skew
// scenarios) or cluster (jobs/min and elastic restore counts through an
// in-process chaosd coordinator and worker pool). Every table but cluster
// reports virtual seconds under the cost model; host time is measured by
// `bash benchmarks/run.sh`. -quick uses the shrunken scale (seconds instead
// of minutes of wall time). -markdown emits GitHub-flavoured markdown
// instead of aligned text; -json emits newline-delimited JSON, one record
// per table row, for downstream tooling.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// generators lists every table under its -table name, in usage order. The
// first paperTables entries are what a run without -table regenerates.
var generators = []struct {
	name string
	gen  func(bench.Scale) *bench.Table
}{
	{"1", bench.Table1},
	{"2", bench.Table2},
	{"3", bench.Table3},
	{"4", bench.Table4},
	{"5", bench.Table5},
	{"6", bench.Table6},
	{"7", bench.Table7},
	{"loopir", func(bench.Scale) *bench.Table { return bench.Loopir() }},
	{"adapt", bench.Adapt},
	{"cluster", func(bench.Scale) *bench.Table { return bench.Cluster() }},
}

const paperTables = 7

// tableNames returns the valid -table values joined by sep.
func tableNames(sep string) string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return strings.Join(names, sep)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the shrunken quick scale")
	table := fs.String("table", "", "run only this table: "+tableNames(", ")+" (default: 1-7)")
	markdown := fs.Bool("markdown", false, "emit markdown output")
	jsonOut := fs.Bool("json", false, "emit newline-delimited JSON, one record per table row")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tables [-quick] [-table %s] [-markdown | -json]\n", tableNames("|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageError := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tables: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usageError("unexpected argument %q", fs.Arg(0))
	}
	if *markdown && *jsonOut {
		return usageError("-markdown and -json are mutually exclusive")
	}
	picked := generators[:paperTables]
	if *table != "" {
		picked = nil
		for i, g := range generators {
			if g.name == *table {
				picked = generators[i : i+1]
			}
		}
		if picked == nil {
			return usageError("no table %q (valid: %s)", *table, tableNames(", "))
		}
	}

	sc := bench.Full()
	if *quick {
		sc = bench.Quick()
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "# CHAOS reproduction tables — scale=%s machine=%s\n\n", sc.Name, sc.Machine().Name)
	}
	for _, g := range picked {
		start := time.Now()
		t := g.gen(sc)
		switch {
		case *jsonOut:
			if err := t.WriteJSON(stdout, sc.Name); err != nil {
				fmt.Fprintln(stderr, "tables:", err)
				return 1
			}
			continue
		case *markdown:
			fmt.Fprint(stdout, t.Markdown())
		default:
			fmt.Fprint(stdout, t.Render())
		}
		fmt.Fprintf(stdout, "  (regenerated in %.1fs wall)\n\n", time.Since(start).Seconds())
	}
	return 0
}
