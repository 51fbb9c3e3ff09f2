package dsmc

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// policyConfig is a drifting-flow scenario hot enough that the remap policy
// has real skew to react to: a molecule concentration starting in the low-x
// half of a long domain, chain-partitioned along x.
func policyConfig() Config {
	cfg := Default3D()
	cfg.NX, cfg.NY, cfg.NZ = 96, 4, 4
	cfg.NMols = 2000
	cfg.Steps = 30
	cfg.Partitioner = "chain"
	cfg.Adapt = "policy"
	cfg.AdaptVerify = true
	return cfg
}

// runRemapSteps runs cfg and returns every rank's RemapSteps plus the
// global checksum.
func runRemapSteps(nprocs int, cfg Config, tr comm.Transport) ([][]int, float64) {
	steps := make([][]int, nprocs)
	var sum float64
	body := func(p *comm.Proc) {
		res := Run(p, cfg)
		steps[p.Rank()] = res.RemapSteps
		if p.Rank() == 0 {
			sum = res.Checksum
		}
	}
	if tr != nil {
		comm.RunTransport(nprocs, costmodel.IPSC860(), tr, body)
	} else {
		comm.Run(nprocs, costmodel.IPSC860(), body)
	}
	return steps, sum
}

func expectSameSteps(t *testing.T, label string, got, want [][]int) {
	t.Helper()
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: rank %d remapped at %v, want %v", label, r, got[r], want[r])
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("%s: rank %d remapped at %v, want %v", label, r, got[r], want[r])
			}
		}
	}
}

// TestAdaptPolicyDeterministic is the policy-determinism satellite: the
// same skewed DSMC scenario run twice produces the identical remap-step
// sequence on every rank, with the Verify fingerprint reduction armed.
func TestAdaptPolicyDeterministic(t *testing.T) {
	const nprocs = 4
	cfg := policyConfig()
	a, ca := runRemapSteps(nprocs, cfg, nil)
	if len(a[0]) == 0 {
		t.Fatal("drifting-flow scenario never triggered a policy remap")
	}
	for r := 1; r < nprocs; r++ {
		expectSameSteps(t, "cross-rank", [][]int{a[r]}, [][]int{a[0]})
	}
	b, cb := runRemapSteps(nprocs, cfg, nil)
	expectSameSteps(t, "re-run", b, a)
	if ca != cb {
		t.Fatalf("checksums differ across identical runs: %v vs %v", ca, cb)
	}
}

// TestAdaptPolicyDeterministicUnderFaultTransport replays the scenario
// over a benign fault plan (duplicated and reordered messages, no losses):
// the transport chaos must not perturb a single policy decision.
func TestAdaptPolicyDeterministicUnderFaultTransport(t *testing.T) {
	const nprocs = 4
	cfg := policyConfig()
	want, cw := runRemapSteps(nprocs, cfg, nil)
	plan, err := fault.Parse("seed=7,dup=0.3,reorder=0.35")
	if err != nil {
		t.Fatal(err)
	}
	ft := fault.Wrap(comm.NewMemTransport(nprocs), nprocs, plan)
	got, cg := runRemapSteps(nprocs, cfg, ft)
	expectSameSteps(t, "fault transport", got, want)
	if cg != cw {
		t.Fatalf("checksum under fault transport %v, want %v", cg, cw)
	}
}

// TestAdaptStaticAndPeriodicModes pins the two non-policy modes: static
// never remaps after setup, periodic:N remaps exactly on the N-grid.
func TestAdaptStaticAndPeriodicModes(t *testing.T) {
	const nprocs = 4
	cfg := policyConfig()
	cfg.AdaptVerify = false

	cfg.Adapt = "static"
	steps, _ := runRemapSteps(nprocs, cfg, nil)
	if len(steps[0]) != 0 {
		t.Errorf("static mode remapped at %v", steps[0])
	}

	cfg.Adapt = "periodic:7"
	steps, _ = runRemapSteps(nprocs, cfg, nil)
	want := []int{7, 14, 21, 28}
	if len(steps[0]) != len(want) {
		t.Fatalf("periodic:7 remapped at %v, want %v", steps[0], want)
	}
	for i := range want {
		if steps[0][i] != want[i] {
			t.Fatalf("periodic:7 remapped at %v, want %v", steps[0], want)
		}
	}
}

// TestAdaptBadModePanics: a malformed Adapt string fails validation with an
// error naming it, and a run started anyway panics with that message.
func TestAdaptBadModePanics(t *testing.T) {
	for _, bad := range []string{"periodic:0", "periodic:x", "sometimes"} {
		cfg := smallConfig()
		cfg.Adapt = bad
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("Adapt=%q: Validate returned %v", bad, err)
			continue
		}
		func() {
			defer func() {
				if got := recover(); got != err.Error() {
					t.Errorf("Adapt=%q: Reference panicked with %v, want %q", bad, got, err)
				}
			}()
			Reference(cfg)
		}()
	}
}
