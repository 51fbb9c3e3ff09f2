package schedule

import (
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// jumpClock is a scripted measured-mode clock: every reading advances shared
// time by one second, and a test adds a jump to stand for real work.
type jumpClock struct{ t atomic.Int64 }

func (c *jumpClock) Now() float64 { return float64(c.t.Add(1)) }

// TestSplitPhaseWindowNotBilledToCommWall pins the measured-mode rule of
// the *Start spellings: uncharged work between Start and Wait is never
// billed to Measured.CommWall. Rank 1 sends nothing in the gather, so
// nothing in start drops the receive sample its previous receive cached;
// unless Start drops it, Wait's first receive would measure from before the
// window.
func TestSplitPhaseWindowNotBilledToCommWall(t *testing.T) {
	const jump = 1000
	c := &jumpClock{}
	var window float64
	comm.RunMeasuredTransport(2, costmodel.Uniform(1e-9), comm.NewMemTransport(2), comm.MeasureOpts{Workers: 2, Clock: c}, func(p *comm.Proc) {
		_, ht := buildEnv(p, []int32{0, 0, 0, 0, 1, 1, 1, 1})
		refs := []int32{0, 1} // rank 0 references only its own elements
		if p.Rank() == 1 {
			refs = []int32{0, 1, 5}
		}
		st := ht.NewStamp()
		ht.Hash(refs, st)
		s := Build(p, ht, st, 0)
		data := make([]float64, s.MinLen())
		if p.Rank() == 0 {
			p.PackF64(0)
			p.SendPacked(1, 1)
			GatherWStart(p, s, data, 1).Wait()
			return
		}
		if len(s.sendOffs[0]) != 0 || len(s.RecvSlots(0)) == 0 {
			t.Errorf("rank 1 sends %d and receives %d elements, want 0 and some", len(s.sendOffs[0]), len(s.RecvSlots(0)))
		}
		p.RecvF64View(0, 1) // caches a valid receive sample
		p.ReleaseView()
		before := p.Measured().CommWall
		mo := GatherWStart(p, s, data, 1)
		c.t.Add(jump) // the uncharged overlap window
		mo.Wait()
		window = p.Measured().CommWall - before
	})
	if window <= 0 || window >= jump {
		t.Errorf("Wait billed %v s to CommWall, want a receive wait that excludes the %d s window between Start and Wait", window, jump)
	}
}
