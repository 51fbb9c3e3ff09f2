package charmm

import (
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// tickClock is a scripted measured-mode clock shared by all ranks: every
// reading advances time by exactly one second.
type tickClock struct{ t atomic.Int64 }

func (c *tickClock) Now() float64 { return float64(c.t.Add(1)) }

// TestKernelCompiledPhasesWithinWall holds the measured ledger of the
// compiled kernel to one owner per phase key: the rank's Proc.Mark charges
// consecutive intervals of the rank body, so on every rank the measured
// phases can add up to at most the rank's wall. A second owner charging a
// key inside one of those intervals would count its time twice. The setup
// before the first inspection — the list search, SetByGlobal, SetCSR — is a
// phase of its own, not time outside every phase; the hand kernel is held
// to the same.
func TestKernelCompiledPhasesWithinWall(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func(*comm.Proc, KernelConfig) *KernelResult
	}{{"compiled", RunKernelCompiled}, {"hand", RunKernelHand}} {
		rep := comm.RunMeasuredTransport(2, costmodel.IPSC860(), comm.NewMemTransport(2), comm.MeasureOpts{Clock: &tickClock{}}, func(p *comm.Proc) {
			k.run(p, smallKernelConfig())
		})
		for r, m := range rep.Measured {
			sum := 0.0
			for _, v := range m.Phases {
				sum += v
			}
			if sum <= 0 || sum > m.Wall {
				t.Errorf("%s, rank %d: measured phases sum to %v, wall %v: want 0 < sum <= wall (%v)", k.name, r, sum, m.Wall, m.Phases)
			}
			if m.Phases["setup"] <= 0 {
				t.Errorf("%s, rank %d: no measured setup phase (%v)", k.name, r, m.Phases)
			}
		}
	}
}
