package comm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/costmodel"
)

// TestSendStartVirtualParity: a program using SendStart+Wait must produce
// bit-identical virtual clocks and statistics to the same program using
// blocking Send — the split-phase charge happens at issue time, exactly like
// the blocking charge.
func TestSendStartVirtualParity(t *testing.T) {
	body := func(split bool) func(p *Proc) {
		return func(p *Proc) {
			peer := 1 - p.Rank()
			for i := 0; i < 5; i++ {
				xs := []float64{float64(i), float64(p.Rank())}
				if split {
					h := p.SendStart(peer, 7, EncodeF64(xs))
					p.ComputeFlops(1000) // overlapped-looking work, charged identically
					h.Wait()
				} else {
					p.SendF64Buf(peer, 7, xs)
					p.ComputeFlops(1000)
				}
				got := p.RecvF64(peer, 7)
				if got[0] != float64(i) || got[1] != float64(peer) {
					t.Errorf("rank %d: got %v", p.Rank(), got)
				}
			}
		}
	}
	block := Run(2, costmodel.Uniform(3e-8), body(false))
	split := Run(2, costmodel.Uniform(3e-8), body(true))
	for r := 0; r < 2; r++ {
		if math.Float64bits(block.Clocks[r]) != math.Float64bits(split.Clocks[r]) {
			t.Errorf("rank %d: clock %v (Send) != %v (SendStart)", r, block.Clocks[r], split.Clocks[r])
		}
		if block.Stats[r] != split.Stats[r] {
			t.Errorf("rank %d: stats %+v != %+v", r, block.Stats[r], split.Stats[r])
		}
	}
}

// TestSendStartFIFOWithBlockingSend: a blocking send issued after unwaited
// split-phase sends must not overtake them — the receiver sees issue order
// on the link.
func TestSendStartFIFOWithBlockingSend(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		Run(2, costmodel.Uniform(1e-9), func(p *Proc) {
			const n = 6
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					p.SendStart(1, 7, EncodeF64([]float64{float64(i)}))
				}
				p.SendF64Buf(1, 7, []float64{float64(n)}) // must arrive last
				return
			}
			for i := 0; i <= n; i++ {
				if got := p.RecvF64(0, 7); got[0] != float64(i) {
					t.Fatalf("trial %d: message %d carried %v (order broken)", trial, i, got[0])
				}
			}
		})
	}
}

// TestPendingWaitScriptedClockSamples pins the measured-mode sampling
// contract of split-phase sends: neither SendStart nor Pending.Wait reads
// the clock, and SendStart, like every send, invalidates the receive path's
// cached sample so the next receive takes a fresh start reading — the
// encode and copy time of the send must not be misattributed to CommWall.
func TestPendingWaitScriptedClockSamples(t *testing.T) {
	c := &tickClock{}
	var samples int64
	rep := RunMeasuredTransport(2, costmodel.Uniform(1e-6), NewMemTransport(2), MeasureOpts{Workers: 2, Clock: c}, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 4; i++ {
				p.SendF64(1, 7, []float64{float64(i)})
			}
			p.RecvF64(1, 8)
			return
		}
		before := p.Measured().ClockSamples
		p.RecvF64(0, 7)                                 // fresh start + end: 2 readings
		p.RecvF64(0, 7)                                 // amortized: 1 reading
		h := p.SendStart(0, 8, EncodeF64([]float64{1})) // no readings at issue
		h.Wait()                                        // no readings: the send is done
		p.RecvF64(0, 7)                                 // cache invalidated by the send: 2 readings
		p.RecvF64(0, 7)                                 // amortized again: 1 reading
		samples = p.Measured().ClockSamples - before
	})
	if samples != 6 {
		t.Errorf("scripted sequence took %d readings, want 6 (2+1+0+0+2+1)", samples)
	}
	for r := 0; r < 2; r++ {
		if rep.Measured[r].CommWall < 0 {
			t.Errorf("rank %d: negative CommWall %v", r, rep.Measured[r].CommWall)
		}
	}
}

// failSendTransport panics on the first Send carrying the poisoned tag,
// emulating a dead link detected mid-frame.
type failSendTransport struct {
	Transport
	failTag int
}

func (f *failSendTransport) Send(m Message) {
	if m.Tag == f.failTag {
		panic(PeerFailure{})
	}
	f.Transport.Send(m)
}

// TestSendStartErrorSurfacesAtIssue: SendStart hands the frame to the
// transport inline, so a failing send panics inside SendStart on the owning
// rank — it neither vanishes nor waits for Wait.
func TestSendStartErrorSurfacesAtIssue(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("run with a dead link did not panic")
		}
		if !strings.Contains(e.(string), "aborted by a peer failure") {
			t.Fatalf("unexpected panic: %v", e)
		}
	}()
	tr := &failSendTransport{Transport: NewMemTransport(2), failTag: 13}
	RunTransport(2, costmodel.Uniform(1e-9), tr, func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		h := p.SendStart(1, 13, EncodeF64([]float64{1, 2, 3}))
		t.Error("SendStart returned despite the send failing")
		h.Wait()
	})
}
