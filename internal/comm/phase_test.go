package comm

import (
	"maps"
	"testing"

	"repro/internal/costmodel"
)

// TestMarkAccumulates: a repeated phase accumulates its intervals, and
// SkipPhase charges the time since the last boundary to no phase.
func TestMarkAccumulates(t *testing.T) {
	rep := Run(1, costmodel.Uniform(1e-3), func(p *Proc) {
		p.Compute(0.5)
		p.Mark("a")
		p.Compute(0.25)
		p.Mark("b")
		p.Compute(1.0)
		p.Mark("a")
		p.Compute(9)
		p.SkipPhase()
		p.Compute(0.5)
		p.Mark("c")
	})
	want := map[string]float64{"a": 1.5, "b": 0.25, "c": 0.5}
	if got := rep.Phases[0]; !maps.Equal(got, want) {
		t.Errorf("phases = %v, want %v (SkipPhase must leak no time)", got, want)
	}
	if rep.PhaseMax("a") != 1.5 || rep.PhaseMax("nosuch") != 0 {
		t.Errorf("PhaseMax wrong: %v / %v", rep.PhaseMax("a"), rep.PhaseMax("nosuch"))
	}
}

// TestLedgerBothClocks runs a ledger under RunMeasured with a scripted
// clock: on every rank the virtual and measured phases have the same keys,
// the spans tile the virtual clock from 0 to the final clock except across
// the one SkipPhase, and the first Mark is charged from the start of the
// rank body — on one rank, exactly one tick after the body's start reading.
func TestLedgerBothClocks(t *testing.T) {
	body := func(p *Proc) {
		p.Compute(float64(p.Rank()+1) * 1e-3)
		p.Mark("setup")
		p.Barrier()
		p.Mark("sync")
		p.Compute(5e-3)
		p.SkipPhase()
		p.Compute(2e-3)
		p.Mark("work")
		p.Barrier()
		p.Mark("sync")
	}
	for _, n := range []int{1, 3} {
		rep := RunMeasuredTransport(n, costmodel.IPSC860(), NewMemTransport(n), MeasureOpts{Clock: &tickClock{}}, body)
		for r := 0; r < n; r++ {
			virt, meas := rep.Phases[r], rep.Measured[r].Phases
			if len(virt) != len(meas) {
				t.Errorf("%d ranks, rank %d: virtual phases %v, measured %v", n, r, virt, meas)
			}
			for k := range virt {
				if _, ok := meas[k]; !ok {
					t.Errorf("%d ranks, rank %d: virtual phase %q has no measured twin (%v)", n, r, k, meas)
				}
			}
			spans := rep.Spans[r]
			if len(spans) != 4 || spans[0].Start != 0 || spans[len(spans)-1].End != rep.Clocks[r] {
				t.Fatalf("%d ranks, rank %d: spans %v do not run from 0 to the clock %v", n, r, spans, rep.Clocks[r])
			}
			for i := 1; i < len(spans); i++ {
				if tiled := spans[i].Start == spans[i-1].End; tiled != (spans[i].Phase != "work") {
					t.Errorf("%d ranks, rank %d: span %d %+v after %+v (only the skip may leave a gap)", n, r, i, spans[i], spans[i-1])
				}
			}
			if virt["setup"] != float64(r+1)*1e-3 {
				t.Errorf("%d ranks, rank %d: setup %v, want the compute since the body's start", n, r, virt["setup"])
			}
			sum := 0.0
			for _, v := range meas {
				sum += v
			}
			if sum > rep.Measured[r].Wall {
				t.Errorf("%d ranks, rank %d: measured phases sum to %v, wall %v", n, r, sum, rep.Measured[r].Wall)
			}
		}
		if n == 1 && rep.Measured[0].Phases["setup"] != 1 {
			t.Errorf("1 rank: measured setup %v ticks, want 1 (body start to the first Mark)", rep.Measured[0].Phases["setup"])
		}
	}
}
