// Command tables regenerates every table of the paper's evaluation section
// (Tables 1-7) on the simulated iPSC/860-like machine and prints them as
// aligned text or newline-delimited JSON.
//
// Usage:
//
//	tables [-quick] [-table 1..7|loopir|adapt] [-json]
//
// Without -table, Tables 1-7 run. -table picks one table by name: a paper
// table by number, loopir (the fortd -O0 vs -O schedule-reuse table) or adapt
// (static, periodic and policy-driven remapping across three DSMC skew
// scenarios). Every table reports virtual seconds under the cost model; host
// time is measured by `bash benchmarks/run.sh`. -quick uses the shrunken
// scale (seconds instead of minutes of wall time); loopir has one size of its
// own, labelled quick, and refuses -quick. -json emits newline-delimited
// JSON, one record per table row, for downstream tooling;
// internal/bench/testdata/tables_full.ndjson is Tables 1-7 at full scale.
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
	"repro/internal/costmodel"
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
	jsonOut := fs.Bool("json", false, "emit newline-delimited JSON, one record per table row")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tables [-quick] [-table %s] [-json]\n", tableNames("|"))
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

	// loopir takes no scale: it always runs at its one size, which is
	// labelled as the quick scale.
	sc := bench.Full()
	switch {
	case *table == "loopir" && *quick:
		return usageError("-table loopir runs at one fixed size: -quick does not apply")
	case *table == "loopir" || *quick:
		sc = bench.Quick()
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "# CHAOS reproduction tables — scale=%s machine=%s\n\n", sc.Name, costmodel.IPSC860().Name)
	}
	for _, g := range picked {
		start := time.Now()
		t := g.gen(sc)
		if *jsonOut {
			if err := t.WriteJSON(stdout, sc.Name); err != nil {
				fmt.Fprintln(stderr, "tables:", err)
				return 1
			}
			continue
		}
		fmt.Fprint(stdout, t.Render())
		fmt.Fprintf(stdout, "  (regenerated in %.1fs wall)\n\n", time.Since(start).Seconds())
	}
	return 0
}
