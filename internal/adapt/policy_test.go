package adapt

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestPolicyTriggersOnSustainedSkew drives the full control loop: skew
// grows, the policy remaps once the modeled payoff beats the fitted cost,
// the remap rebalances the (scripted) costs, skew redevelops, and the
// policy remaps again — with every rank seeing the identical decision
// sequence.
func TestPolicyTriggersOnSustainedSkew(t *testing.T) {
	const nprocs = 4
	const steps = 20
	decs := make([][]int, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		pol.observeRemap(p, 2e-3)
		sinceRemap := 1 << 30 // skewed from the start
		for s := 0; s < steps; s++ {
			cost := 1e-3
			if p.Rank() == 0 && sinceRemap >= 2 {
				cost = 4e-3 // hot rank once the balance has decayed: gain 2.25e-3
			}
			sinceRemap++
			if pol.step(p, cost) {
				pol.observeRemap(p, 2e-3)
				sinceRemap = 0 // the remap rebalances the load
			}
		}
		decs[p.Rank()] = append([]int(nil), pol.decisions...)
	})
	if len(decs[0]) < 2 {
		t.Fatalf("sustained redeveloping skew triggered %v, want repeated remaps", decs[0])
	}
	for r := 1; r < nprocs; r++ {
		if len(decs[r]) != len(decs[0]) {
			t.Fatalf("rank %d decided %v, rank 0 %v", r, decs[r], decs[0])
		}
		for i := range decs[0] {
			if decs[r][i] != decs[0][i] {
				t.Errorf("rank %d decision %d at step %d, rank 0 at %d", r, i, decs[r][i], decs[0][i])
			}
		}
	}
	// The cooldown must hold between consecutive remaps.
	for i := 1; i < len(decs[0]); i++ {
		if decs[0][i]-decs[0][i-1] < cooldown {
			t.Errorf("remaps at steps %d and %d violate cooldown %d", decs[0][i-1], decs[0][i], cooldown)
		}
	}
}

// TestPolicyHysteresisBlocksMarginalGain: when the modeled payoff sits
// between the raw remap cost and cost*hysteresis, the policy holds off —
// the anti-thrash margin.
func TestPolicyHysteresisBlocksMarginalGain(t *testing.T) {
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		pol.observeRemap(p, 10e-3) // payoff must beat 12e-3 (hysteresis 1.2)
		for s := 0; s < 10; s++ {
			cost := 1e-3
			if p.Rank() == 0 {
				cost = 3e-3 // gain 1e-3/step, payoff 12e-3: above the cost, not above the margin
			}
			if pol.step(p, cost) {
				t.Errorf("step %d: marginal gain remapped inside the hysteresis band", s+1)
			}
		}
	})
}

// TestPolicyAgreesUnderSkewedLocalClocks is the divergence regression:
// ranks hand the policy wildly different local step costs (the skewed-
// clock scenario), and because the rule only sees the reduced vector they
// still reach the identical decision — Verify would panic otherwise.
func TestPolicyAgreesUnderSkewedLocalClocks(t *testing.T) {
	const nprocs = 4
	decs := make([][]int, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		pol.observeRemap(p, 1e-3)
		for s := 0; s < 8; s++ {
			// Deliberately rank-dependent (and step-varying) local costs.
			cost := float64(p.Rank()*p.Rank()+1) * 1e-3 * float64(s+1)
			if pol.step(p, cost) {
				pol.observeRemap(p, 1e-3)
			}
		}
		decs[p.Rank()] = append([]int(nil), pol.decisions...)
	})
	for r := 1; r < nprocs; r++ {
		if len(decs[r]) != len(decs[0]) {
			t.Fatalf("rank %d decision sequence %v != rank 0 %v", r, decs[r], decs[0])
		}
		for i := range decs[0] {
			if decs[r][i] != decs[0][i] {
				t.Errorf("rank %d decision %d diverges: %d != %d", r, i, decs[r][i], decs[0][i])
			}
		}
	}
}

// TestPolicyResidualFloorBlocksUnfixableSkew: when a remap leaves the
// skew exactly as it was (partition-granularity imbalance no repartition
// can remove), the first post-remap observation fits the residual floor
// and the policy stops paying for remaps that cannot help.
func TestPolicyResidualFloorBlocksUnfixableSkew(t *testing.T) {
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		pol.observeRemap(p, 2e-3)
		remaps := 0
		for s := 0; s < 20; s++ {
			cost := 1e-3
			if p.Rank() == 0 {
				cost = 5e-3 // skew survives every remap: nothing recoverable
			}
			if pol.step(p, cost) {
				pol.observeRemap(p, 2e-3)
				remaps++
			}
		}
		if remaps > 1 {
			t.Errorf("unfixable skew bought %d remaps, want at most the one probe", remaps)
		}
		if pol.floor <= 0 {
			t.Errorf("residual floor %g after an ineffective remap, want positive", pol.floor)
		}
	})
}

// TestPolicyVerifyCatchesDivergence seeds a genuine divergence (ranks
// count different steps since the last remap, which a correct deployment
// never does) and asserts the Verify fingerprint reduction panics instead
// of letting ranks silently desynchronize their remap schedules. The step
// count is not in the fingerprint, so gain, floor, debt and remapCost agree
// on every rank. The run stops at the step the decisions split, before rank
// 0's remap resets its state, so only the decision slot can catch it.
func TestPolicyVerifyCatchesDivergence(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("divergent policy state did not panic under Verify")
		}
		if !strings.Contains(panicString(r), "diverged") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		pol.observeRemap(p, 2e-3)
		// Rank 1 stays inside the cooldown: rank 0 remaps at step 3, rank 1
		// does not.
		pol.since = -100 * p.Rank()
		for s := 0; s < 3; s++ {
			cost := 1e-3
			if p.Rank() == 0 {
				cost = 4e-3
			}
			pol.step(p, cost)
		}
	})
}

func panicString(r interface{}) string {
	if s, ok := r.(string); ok {
		return s
	}
	if e, ok := r.(error); ok {
		return e.Error()
	}
	return ""
}

// TestPolicyRemapCostFit: ObserveRemap fits the max across ranks and
// smooths across episodes.
func TestPolicyRemapCostFit(t *testing.T) {
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.observeRemap(p, float64(p.Rank()+1)*1e-3)
		if got := pol.remapCost; got != 3e-3 {
			t.Errorf("rank %d: first fit %g, want max 3e-3", p.Rank(), got)
		}
		pol.observeRemap(p, 1e-3)
		if got := pol.remapCost; got != 2e-3 {
			t.Errorf("rank %d: smoothed fit %g, want 2e-3", p.Rank(), got)
		}
	})
}

// TestPolicyDecideByHand pins the pure rule's state after each of a
// hand-computed sequence of reduced cost vectors on two ranks: the gain
// (max minus mean) seeds and then smooths the gain estimate, a post-remap
// observation seeds and then smooths the residual floor, and the debt
// accrues the raw gain's excess over the floor. remapCost 0.5 and a spent
// cooldown make the verdict follow the recoverable gain alone.
func TestPolicyDecideByHand(t *testing.T) {
	pol := &policy{remapCost: 0.5, haveCost: true, since: cooldown}
	for i, row := range []struct {
		afterRemap        bool
		red               []float64
		floor, debt, gain float64
		remap             bool
	}{
		// gain 1 seeds the floor and the gain estimate: nothing recoverable.
		{true, []float64{3, 1}, 1, 0, 1, false},
		// gain 2 after a remap: the floor smooths up to 1.5 and so does the
		// gain estimate; the excess 0.5 is debt, and nothing is recoverable.
		{true, []float64{5, 1}, 1.5, 0.5, 1.5, false},
		// gain 3: the estimate smooths to 2.25, 0.75 over the floor, and the
		// excess 1.5 brings the debt to 2: 0.75*12 beats 0.5*1.2.
		{false, []float64{7, 1}, 1.5, 2, 2.25, true},
	} {
		pol.awaitFloor = row.afterRemap
		remap := pol.decide(row.red)
		if pol.floor != row.floor || pol.debt != row.debt || pol.gain != row.gain || remap != row.remap {
			t.Errorf("row %d: floor %g, debt %g, gain %g, remap %v; want %g, %g, %g, %v",
				i, pol.floor, pol.debt, pol.gain, remap, row.floor, row.debt, row.gain, row.remap)
		}
	}
}

// TestPolicyStepAllocs: the per-step decision path is allocation-free once
// warm (it runs inside every application time step).
func TestPolicyStepAllocs(t *testing.T) {
	const nprocs = 4
	got := make([]float64, nprocs)
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		pol := &policy{}
		pol.since = -1 << 30 // inside the cooldown: decisions off, isolating the steady-state path
		pol.observeRemap(p, 1e-3)
		body := func() { pol.step(p, float64(p.Rank())*1e-3) }
		for i := 0; i < 5; i++ {
			body()
		}
		got[p.Rank()] = testing.AllocsPerRun(50, body)
	})
	for r, a := range got {
		if a != 0 {
			t.Errorf("rank %d: %v allocs/op in Policy.Step, want 0", r, a)
		}
	}
}
