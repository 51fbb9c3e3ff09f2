package adapt

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestTriggerDue: the selector resolves to one remap schedule — a step
// count N remaps every N steps, "", "0" and "static" never after set-up —
// and Active is false only where no remap was asked for.
func TestTriggerDue(t *testing.T) {
	for _, tc := range []struct {
		selector string
		want     []int // steps in 1..12 at which Due is true
		active   bool
	}{
		{"", nil, false},
		{"0", nil, false},
		{"static", nil, true},
		{"4", []int{4, 8, 12}, true},
		{"1", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, true},
		{"12", []int{12}, true},
	} {
		trig, err := NewTrigger(tc.selector, false)
		if err != nil {
			t.Fatalf("NewTrigger(%q): %v", tc.selector, err)
		}
		if trig.Active() != tc.active {
			t.Errorf("%q: Active() = %v, want %v", tc.selector, trig.Active(), tc.active)
		}
		var got []int
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			trig.Start(p)
			for step := 1; step <= 12; step++ {
				if trig.Due(p, step) {
					got = append(got, step)
					trig.Episode(p, step, func() {})
				}
			}
		})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: due at %v, want %v", tc.selector, got, tc.want)
		}
		if !reflect.DeepEqual(trig.Steps, tc.want) {
			t.Errorf("%q: Steps() = %v, want %v", tc.selector, trig.Steps, tc.want)
		}
	}
	for _, bad := range []string{"-1", "x", "Policy", "periodic:3"} {
		if _, err := NewTrigger(bad, false); err == nil {
			t.Errorf("NewTrigger(%q) accepted", bad)
		}
	}
	// Only the policy makes decisions for verify to cross-check.
	for _, selector := range []string{"", "0", "static", "4"} {
		if _, err := NewTrigger(selector, true); err == nil {
			t.Errorf("NewTrigger(%q, verify) accepted", selector)
		}
	}
}

// skewedStep charges one scripted time step: every rank computes one unit,
// rank 0 four once the balance a remap restored has decayed.
func skewedStep(p *comm.Proc, sinceRemap int) {
	flops := 100000
	if p.Rank() == 0 && sinceRemap >= 2 {
		flops *= 4
	}
	p.ComputeFlops(flops)
}

// scriptedEpisode stands in for a repartition+remap: rank-dependent compute
// and a collective, so the episode's price is a maximum over ranks.
func scriptedEpisode(p *comm.Proc) {
	p.ComputeFlops(500000 * (1 + p.Rank()))
	p.Barrier()
}

// TestTriggerPolicyMatchesHandDrivenPolicy: under "policy" the trigger is
// the choreography the applications used to spell themselves — sample the
// compute cost, feed Policy.Step the delta, price the episode on the clock,
// resample — so a scripted run through Trigger and one driving a Policy by
// hand decide at the same steps and end on the same virtual clock.
func TestTriggerPolicyMatchesHandDrivenPolicy(t *testing.T) {
	const nprocs, steps = 4, 40
	type outcome struct {
		decisions, remapped []int
		clock               float64
	}
	viaTrigger := make([]outcome, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		trig, err := NewTrigger("policy", true)
		if err != nil {
			t.Error(err)
			return
		}
		trig.Episode(p, 0, func() { scriptedEpisode(p) })
		p.ComputeFlops(3000000 * p.Rank()) // set-up work Start must not bill to step 1
		sinceRemap := 0                    // the initial partition balanced the load
		trig.Start(p)
		for step := 1; step <= steps; step++ {
			skewedStep(p, sinceRemap)
			sinceRemap++
			if trig.Due(p, step) {
				trig.Episode(p, step, func() { scriptedEpisode(p) })
				sinceRemap = 0
			}
		}
		viaTrigger[p.Rank()] = outcome{trig.pol.decisions, trig.Steps, p.Clock()}
	})
	byHand := make([]outcome, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := &policy{}
		pol.verify = true
		t0 := p.Clock()
		scriptedEpisode(p)
		pol.observeRemap(p, p.Clock()-t0)
		p.ComputeFlops(3000000 * p.Rank())
		var remapped []int
		sinceRemap := 0 // the initial partition balanced the load
		last := p.Stats().ComputeTime
		for step := 1; step <= steps; step++ {
			skewedStep(p, sinceRemap)
			sinceRemap++
			now := p.Stats().ComputeTime
			due := pol.step(p, now-last)
			last = now
			if due {
				t0 := p.Clock()
				scriptedEpisode(p)
				pol.observeRemap(p, p.Clock()-t0)
				last = p.Stats().ComputeTime
				remapped = append(remapped, step)
				sinceRemap = 0
			}
		}
		byHand[p.Rank()] = outcome{pol.decisions, remapped, p.Clock()}
	})
	if len(byHand[0].remapped) < 2 {
		t.Fatalf("scripted skew remapped at %v, want repeated remaps", byHand[0].remapped)
	}
	for r := range byHand {
		if !reflect.DeepEqual(viaTrigger[r], byHand[r]) {
			t.Errorf("rank %d: via Trigger %+v, by hand %+v", r, viaTrigger[r], byHand[r])
		}
		if !reflect.DeepEqual(viaTrigger[r].remapped, viaTrigger[0].remapped) {
			t.Errorf("rank %d remapped at %v, rank 0 at %v", r, viaTrigger[r].remapped, viaTrigger[0].remapped)
		}
	}
}
