// Command chaosbench is the repository's benchmark: it runs one named
// workload per invocation, checks every rep against a sequential oracle,
// and prints every metric by name with its unit. See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one named number in the output record.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the last line of standard output, the shape the benchmark
// contract fixes.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: charmm-md, dsmc-regular, kernel-remap or dsmc-finegrain")
		seed    = flag.Int64("seed", 1994, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the timed pairs measure")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and the layer probes and prints the per-layer metrics; 0 prints the end-to-end metrics")
		probes  = flag.Bool("probes", false, "run only the layer probes")
		noise   = flag.Int("noise", 0, "run every workload N times and print each end-to-end metric's (max-min)/median beside its bound")
		short   = flag.Bool("short", false, "toy sizes, one pair: a smoke test, not a measurement")
		outDir  = flag.String("out", "out", "directory the traced pass writes <workload>.trace.json to (run.sh passes benchmarks/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	printHost()
	if runtime.NumCPU() < 2 && !*short {
		// Two ranks on one core would time the scheduler, not the program.
		fatalf("need 2 CPUs to time 2 ranks, have %d", runtime.NumCPU())
	}
	switch {
	case *noise > 0:
		os.Exit(runNoise(*noise, *seed, *seconds))
	case *probes:
		m := runProbes(fullProbes)
		printMetrics(m)
		emit(record{Correct: true, Attempted: len(m), Metrics: m})
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatalf("%v", err)
	}
	var rec record
	if *trace != 0 {
		rec = runTraced(w, *seed, *short, *outDir)
	} else {
		rec = runEndToEnd(w, *seed, *seconds, *short)
	}
	emit(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaosbench: "+format+"\n", args...)
	os.Exit(2)
}

// printHost records where the numbers were taken.
func printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// emit prints the record as the last line of standard output.
func emit(rec record) {
	b, err := json.Marshal(rec)
	if err != nil {
		fatalf("encode record: %v", err)
	}
	fmt.Println(string(b))
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runEndToEnd is the untraced pass that yields the end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds float64, short bool) record {
	h := newHarness(w.prepare(seed, short))
	sh := fullShape(seconds)
	if short {
		sh = shortShape
	}
	res := h.measure(sh)
	rec := h.record()
	if len(res.p2) == 0 {
		rec.Correct = false
		return rec
	}
	rec.Metrics = endToEnd(res)
	printEndToEnd(rec.Metrics, res)
	return rec
}

// endToEnd reduces a run's samples to the end-to-end metrics, in the order
// and units of endToEndDecl.
func endToEnd(res results) map[string]metric {
	values := []float64{
		median(column(res.p2, sample.cal)),
		median(column(res.p1, sample.cal)),
		median(res.setup),
		res.p2[0].virtual,
		median(column(res.p2, func(s sample) float64 { return s.allocMB })),
	}
	m := map[string]metric{}
	for i, d := range endToEndDecl {
		m[d.name] = metric{values[i], d.unit}
	}
	return m
}

// printEndToEnd prints the metrics with the detail behind them: quartiles,
// rep counts, raw medians and how slow the host was.
func printEndToEnd(m map[string]metric, res results) {
	for _, row := range []struct {
		name string
		ss   []sample
	}{{"wall_s", res.p2}, {"wall_p1_s", res.p1}} {
		q1, med, q3 := quartiles(column(row.ss, sample.cal))
		fmt.Printf("%-10s %.4f s calibrated  (q1 %.4f q3 %.4f, %d reps; raw median %.4f s; host.slowdown %.3f)\n",
			row.name, med, q1, q3, len(row.ss), median(column(row.ss, rawWall)), median(column(row.ss, sample.slowdown)))
	}
	fmt.Printf("%-10s %.4f s calibrated  (%d prologues: %.4f; raw median %.4f s)\n",
		"setup_s", m["setup_s"].Value, len(res.setup), res.setup, median(res.setupRaw))
	fmt.Printf("%-10s %.6f vsec  (identical in all %d reps; %d msgs, %d bytes)\n",
		"virtual_s", m["virtual_s"].Value, len(res.p2), res.p2[0].msgs, res.p2[0].bytes)
	fmt.Printf("%-10s %.3f MB per 2-rank rep\n", "alloc_mb", m["alloc_mb"].Value)
}
