package main

import (
	"fmt"
	"slices"
)

// metricDecl is a metric as BENCHMARK.json declares it; a test holds the
// two lists equal.
type metricDecl struct {
	name  string
	unit  string
	bound float64 // end-to-end only: share of the median it may worsen by
}

// endToEndDecl lists the end-to-end metrics, all lower-is-better.
var endToEndDecl = []metricDecl{
	{"wall_s", "s", 0.25},
	{"wall_p1_s", "s", 0.20},
	{"setup_s", "s", 0.25},
	{"virtual_s", "vsec", 0.08},
	{"alloc_mb", "MB", 0.10},
}

// spread is (max − min) ÷ median.
func spread(xs []float64) float64 { return (slices.Max(xs) - slices.Min(xs)) / median(xs) }

// runNoise is the -noise mode: n end-to-end runs of every workload back to
// back on one seed, then for every end-to-end metric the spread
// (max − min) ÷ median of its n values beside the metric's bound, once for
// the calibrated value the benchmark reports and once for the raw,
// uncalibrated seconds, so the effect of calibration is on record. The
// output is Markdown (committed as NOISE.md). It returns the exit code:
// non-zero if any calibrated spread exceeds its bound or a rep failed.
func runNoise(n int, seed int64, seconds float64) int {
	code := 0
	fmt.Printf("\n%d runs per workload, seed %d, %.0f s of timed pairs per run.\n", n, seed, seconds)
	fmt.Println("spread = (max − min) ÷ median over the runs.")
	for _, w := range workloads {
		vals := map[string][]float64{}
		raw := map[string][]float64{}
		failed := 0
		for i := 0; i < n; i++ {
			h := newHarness(w.prepare(seed, false))
			res := h.measure(fullShape(seconds))
			failed += h.failed
			if len(res.p2) == 0 {
				continue
			}
			for name, m := range endToEnd(res) {
				vals[name] = append(vals[name], m.Value)
			}
			raw["wall_s"] = append(raw["wall_s"], median(column(res.p2, rawWall)))
			raw["wall_p1_s"] = append(raw["wall_p1_s"], median(column(res.p1, rawWall)))
			raw["setup_s"] = append(raw["setup_s"], median(res.setupRaw))
		}
		fmt.Printf("\n### %s\n\n", w.name)
		fmt.Println("| metric | median | spread | bound | verdict | raw median | raw spread |")
		fmt.Println("|---|---|---|---|---|---|---|")
		for _, d := range endToEndDecl {
			v := vals[d.name]
			if len(v) == 0 {
				continue
			}
			verdict := "ok"
			if spread(v) > d.bound {
				verdict, code = "EXCEEDS", 1
			}
			rawCols := "| | |"
			if r := raw[d.name]; len(r) > 0 {
				rawCols = fmt.Sprintf("| %.4f | %.1f %% |", median(r), 100*spread(r))
			}
			fmt.Printf("| %s | %.4f %s | %.1f %% | %.0f %% | %s %s\n",
				d.name, median(v), d.unit, 100*spread(v), 100*d.bound, verdict, rawCols)
		}
		if failed > 0 {
			fmt.Printf("\n%d failed reps\n", failed)
			code = 1
		}
	}
	return code
}
