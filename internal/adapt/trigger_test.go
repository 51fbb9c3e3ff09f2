package adapt

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestTriggerDue: the selector and the application's periodic knob resolve
// to one remap schedule — every selector but "" overrides remapEvery.
func TestTriggerDue(t *testing.T) {
	for _, tc := range []struct {
		selector   string
		remapEvery int
		want       []int // steps in 1..12 at which Due is true
		active     bool
	}{
		{"", 0, nil, false},
		{"", 4, []int{4, 8, 12}, true},
		{"", 1, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, true},
		{"static", 0, nil, true},
		{"static", 4, nil, true},
		{"periodic:5", 0, []int{5, 10}, true},
		{"periodic:5", 4, []int{5, 10}, true},
		{"periodic:12", 3, []int{12}, true},
	} {
		trig, err := NewTrigger(tc.selector, tc.remapEvery, false)
		if err != nil {
			t.Fatalf("NewTrigger(%q, %d): %v", tc.selector, tc.remapEvery, err)
		}
		if trig.Active() != tc.active {
			t.Errorf("(%q, %d): Active() = %v, want %v", tc.selector, tc.remapEvery, trig.Active(), tc.active)
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
			t.Errorf("(%q, %d): due at %v, want %v", tc.selector, tc.remapEvery, got, tc.want)
		}
		if !reflect.DeepEqual(trig.Steps, tc.want) {
			t.Errorf("(%q, %d): Steps() = %v, want %v", tc.selector, tc.remapEvery, trig.Steps, tc.want)
		}
	}
	for _, bad := range []string{"periodic:0", "periodic:-3", "periodic:x", "periodic", "sometimes", "Policy"} {
		if _, err := NewTrigger(bad, 0, false); err == nil {
			t.Errorf("NewTrigger(%q) accepted", bad)
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
		trig, err := NewTrigger("policy", 7, true) // remapEvery is overridden
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
		viaTrigger[p.Rank()] = outcome{trig.pol.Decisions, trig.Steps, p.Clock()}
	})
	byHand := make([]outcome, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		pol := NewPolicy()
		pol.Verify = true
		t0 := p.Clock()
		scriptedEpisode(p)
		pol.ObserveRemap(p, p.Clock()-t0)
		p.ComputeFlops(3000000 * p.Rank())
		var remapped []int
		sinceRemap := 0 // the initial partition balanced the load
		last := p.Stats().ComputeTime
		for step := 1; step <= steps; step++ {
			skewedStep(p, sinceRemap)
			sinceRemap++
			now := p.Stats().ComputeTime
			due := pol.Step(p, now-last)
			last = now
			if due {
				t0 := p.Clock()
				scriptedEpisode(p)
				pol.ObserveRemap(p, p.Clock()-t0)
				last = p.Stats().ComputeTime
				remapped = append(remapped, step)
				sinceRemap = 0
			}
		}
		byHand[p.Rank()] = outcome{pol.Decisions, remapped, p.Clock()}
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
