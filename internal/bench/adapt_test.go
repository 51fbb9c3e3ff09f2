package bench

import (
	"testing"
)

// TestAdaptPolicyWinsOnDriftingFlow pins the BENCH_adapt acceptance
// property at quick scale: on the drifting-flow scenario the policy
// engine's total virtual time beats both never remapping (static) and
// every fixed remap period in the sweep.
func TestAdaptPolicyWinsOnDriftingFlow(t *testing.T) {
	sc := Quick()
	drifting := adaptScenarios(sc)[1].cfg

	static, _ := runAdaptScenario(sc, drifting, "static")
	policy, psteps := runAdaptScenario(sc, drifting, "policy")
	t.Logf("static  %.3f", static)
	t.Logf("policy  %.3f remaps %v", policy, psteps)
	if policy >= static {
		t.Errorf("policy %.3f did not beat static %.3f on drifting flow", policy, static)
	}
	for _, mode := range adaptModes {
		if mode == "static" || mode == "policy" {
			continue
		}
		per, steps := runAdaptScenario(sc, drifting, mode)
		t.Logf("%-12s %.3f remaps %v", mode, per, steps)
		if policy >= per {
			t.Errorf("policy %.3f did not beat %s %.3f on drifting flow", policy, mode, per)
		}
	}
}
