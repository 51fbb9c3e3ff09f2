package bench

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/dsmc"
)

// adaptScenario is one DSMC load-evolution shape for the remap-policy
// comparison.
type adaptScenario struct {
	name string
	cfg  dsmc.Config
}

// adaptScenarios builds the three skew shapes of BENCH_adapt on a long
// chain-partitioned 3-D domain:
//
//   - steady: molecules fill the domain uniformly and stay balanced, so
//     every remap is pure overhead;
//   - drifting flow: the Table 5 scenario — a coherent concentration in
//     the low-x half translating along +x, degrading any fixed partition
//     at a steady rate;
//   - sudden front: a narrow fast-moving front, so the imbalance profile
//     changes abruptly rather than gradually.
func adaptScenarios(sc Scale) []adaptScenario {
	base := dsmc.Default3D()
	base.NX, base.NY, base.NZ = 96, 4, 4
	base.NMols = sc.adaptMols
	base.Steps = sc.adaptSteps
	base.Partitioner = "chain"

	steady := base
	steady.InitSlabFrac = 1.0

	// Drift is sized so the concentration traverses a large fraction of the
	// 96-cell domain within the benchmark's step budget — the initial chain
	// partition visibly degrades, unlike Default3D's slow Table 5 creep.
	// The large thermal spread disperses the concentration toward uniformity
	// over the run, so the skew-growth rate decays: frequent remaps pay
	// early, and progressively longer periods (eventually none) pay late —
	// no fixed period is right for the whole run.
	drifting := base
	drifting.InitSlabFrac = 0.5
	drifting.Drift = 3.2
	drifting.Sigma = 3.0

	front := base
	front.InitSlabFrac = 0.15
	front.Drift = 4.8
	front.Sigma = 0.12

	return []adaptScenario{
		{"steady", steady},
		{"drifting flow", drifting},
		{"sudden front", front},
	}
}

// adaptModes are the remap selectors BENCH_adapt sweeps: never (beyond the
// initial partition), three Table 7-style fixed periods, and the online
// policy engine. The rows are labelled adapt.Mode(selector).
var adaptModes = []string{"static", "2", "5", "10", "policy"}

// Adapt compares remap triggers across the skew scenarios: one row per
// mode, one virtual-seconds column per scenario, plus the per-scenario
// remap counts. The policy rows run without cross-rank decision
// verification (see RunAdaptScenario); TestAdaptPolicyDeterministic arms it.
func Adapt(sc Scale) *Table {
	scens := adaptScenarios(sc)
	t := &Table{
		id:    "BENCH_adapt",
		title: "Adaptive remapping: policy engine vs static and periodic (virtual sec)",
		notes: []string{
			fmt.Sprintf("%d procs, %d molecules, %d steps, chain partitioner", sc.adaptProcs, sc.adaptMols, sc.adaptSteps),
			"remaps column: repartition count per scenario, in scenario order",
		},
	}
	t.columns = []string{"Mode"}
	for _, s := range scens {
		t.columns = append(t.columns, s.name)
	}
	t.columns = append(t.columns, "remaps")
	for _, mode := range adaptModes {
		row := []string{adapt.Mode(mode)}
		counts := ""
		for _, s := range scens {
			clk, remaps := runAdaptScenario(sc, s.cfg, mode)
			row = append(row, f3(clk))
			if counts != "" {
				counts += "/"
			}
			counts += fmt.Sprint(len(remaps))
		}
		t.rows = append(t.rows, append(row, counts))
	}
	return t
}

// runAdaptScenario runs one DSMC scenario under one remap selector and
// returns the run makespan (virtual seconds) and the steps at which the
// trigger remapped. Exported for the regression test that pins "policy
// beats static and every fixed period on drifting flow".
func runAdaptScenario(sc Scale, cfg dsmc.Config, mode string) (clock float64, remaps []int) {
	cfg.Remap = mode
	// Verify stays off: its fingerprint reductions are test instrumentation
	// and would bill the policy rows for communication the production
	// configuration never does.
	cfg.AdaptVerify = false
	results := make([]*dsmc.ProcResult, sc.adaptProcs)
	rep := sc.run(sc.adaptProcs, func(p *comm.Proc) {
		results[p.Rank()] = dsmc.Run(p, cfg)
	})
	return rep.MaxClock(), results[0].RemapSteps
}
