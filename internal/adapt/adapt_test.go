package adapt

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// planOn runs Plan on nprocs ranks where rank 0 carries heavy chunks and
// everyone else light ones, and returns each rank's view of the plan.
func planOn(nprocs, chunks int, heavy float64, stealable int) [][]Steal {
	plans := make([][]Steal, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		ctl := NewController()
		ctl.Configure(p.Machine(), 100, 32, 4, 2)
		cost := make([]float64, chunks)
		units := make([]int, chunks)
		per := 1.0
		if p.Rank() == 0 {
			per = heavy
		}
		for i := range cost {
			cost[i] = per * 1e-3
			units[i] = 40
		}
		ctl.Plan(p, cost, units, stealable)
		plans[p.Rank()] = append([]Steal(nil), ctl.plan...)
	})
	return plans
}

// TestPlanIdenticalOnAllRanks pins the determinism argument: every rank
// derives the same plan from the one AllReduce'd observation vector.
func TestPlanIdenticalOnAllRanks(t *testing.T) {
	plans := planOn(4, 8, 6.0, 8)
	if len(plans[0]) == 0 {
		t.Fatal("skewed load produced no steals")
	}
	for r := 1; r < len(plans); r++ {
		if len(plans[r]) != len(plans[0]) {
			t.Fatalf("rank %d plan length %d != rank 0 %d", r, len(plans[r]), len(plans[0]))
		}
		for i := range plans[0] {
			if plans[r][i] != plans[0][i] {
				t.Errorf("rank %d steal %d = %+v, rank 0 has %+v", r, i, plans[r][i], plans[0][i])
			}
		}
	}
}

// TestPlanStealsTailChunksOnly verifies the suffix discipline that keeps
// replay order static: a donor's stolen chunks are exactly the top of its
// chunk list, taken in descending order, and the donor keeps chunk 0.
func TestPlanStealsTailChunksOnly(t *testing.T) {
	plans := planOn(4, 8, 6.0, 8)
	next := map[int]int{}
	for _, s := range plans[0] {
		if s.Donor == s.Thief {
			t.Errorf("self-steal: %+v", s)
		}
		want, ok := next[s.Donor]
		if !ok {
			want = 7 // chunks-1
		}
		if s.Chunk != want {
			t.Errorf("donor %d stole chunk %d, want tail %d", s.Donor, s.Chunk, want)
		}
		next[s.Donor] = s.Chunk - 1
		if s.Chunk == 0 {
			t.Errorf("donor %d gave away its last chunk", s.Donor)
		}
	}
}

// TestPlanDonorsAndThievesDisjoint: a rank never both donates and
// receives in one plan, so the exchange cannot deadlock.
func TestPlanDonorsAndThievesDisjoint(t *testing.T) {
	plans := planOn(4, 8, 6.0, 8)
	donors := map[int]bool{}
	thieves := map[int]bool{}
	for _, s := range plans[0] {
		donors[s.Donor] = true
		thieves[s.Thief] = true
	}
	for d := range donors {
		if thieves[d] {
			t.Errorf("rank %d is both donor and thief", d)
		}
	}
}

// TestPlanRespectsStealableSuffix: chunks outside the stealable suffix
// (e.g. containing aliased pairs) are never moved.
func TestPlanRespectsStealableSuffix(t *testing.T) {
	plans := planOn(4, 8, 6.0, 2)
	if len(plans[0]) == 0 {
		t.Fatal("no steals with a stealable suffix of 2")
	}
	perDonor := map[int]int{}
	for _, s := range plans[0] {
		perDonor[s.Donor]++
		if s.Chunk < 6 {
			t.Errorf("steal %+v dips below the stealable suffix (chunks 6,7)", s)
		}
	}
	for d, n := range perDonor {
		if n > 2 {
			t.Errorf("donor %d lost %d chunks, suffix allows 2", d, n)
		}
	}
	// With no stealable chunks at all the plan must be empty.
	if got := planOn(4, 8, 6.0, 0); len(got[0]) != 0 {
		t.Errorf("stealable=0 still planned %d steals", len(got[0]))
	}
}

// TestPlanBalancedLoadStealsNothing: equal loads leave the plan empty —
// the overhead model makes any move a strict loss.
func TestPlanBalancedLoadStealsNothing(t *testing.T) {
	plans := planOn(4, 8, 1.0, 8)
	if len(plans[0]) != 0 {
		t.Errorf("balanced load planned %d steals", len(plans[0]))
	}
}

// TestPlanPaysForOverhead: when the imbalance is smaller than the modeled
// steal overhead, the planner declines to move work.
func TestPlanPaysForOverhead(t *testing.T) {
	plans := make([][]Steal, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		ctl := NewController()
		ctl.Configure(p.Machine(), 1, 1<<20, 1<<16, 1<<16) // absurd per-unit overhead
		cost := []float64{1e-3, 1e-3}
		units := []int{1000, 1000}
		if p.Rank() == 0 {
			cost[0], cost[1] = 2e-3, 2e-3
		}
		ctl.Plan(p, cost, units, 2)
		plans[p.Rank()] = append([]Steal(nil), ctl.plan...)
	})
	if len(plans[0]) != 0 {
		t.Errorf("planner stole despite prohibitive modeled overhead: %+v", plans[0])
	}
}

func TestChunkUnitsBounds(t *testing.T) {
	ctl := NewController()
	ctl.Configure(costmodel.IPSC860(), 10, 32, 4, 2)
	if got := ctl.ChunkUnits(0); got != 1 {
		t.Errorf("ChunkUnits(0) = %d, want 1", got)
	}
	if got := ctl.ChunkUnits(5); got != 5 {
		t.Errorf("ChunkUnits(5) = %d, want clamp to 5", got)
	}
	if got := ctl.ChunkUnits(10000); got < ctl.minChunkUnits {
		t.Errorf("ChunkUnits(10000) = %d below MinChunkUnits %d", got, ctl.minChunkUnits)
	}
}

func TestObserveConverges(t *testing.T) {
	ctl := NewController()
	ctl.Configure(costmodel.IPSC860(), 10, 32, 4, 2)
	for i := 0; i < 50; i++ {
		ctl.Observe(100, 100*7e-6)
	}
	if got := ctl.CostPerUnit(); got < 6.9e-6 || got > 7.1e-6 {
		t.Errorf("EWMA cost per unit = %g, want ~7e-6", got)
	}
}
