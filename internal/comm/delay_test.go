package comm

import (
	"testing"
	"time"

	"repro/internal/costmodel"
)

// TestDelayTransportFIFOAndLatency checks the decorator's two contracts:
// per-link send order survives the couriers, and a frame is not visible to
// its receiver before the configured latency elapsed.
func TestDelayTransportFIFOAndLatency(t *testing.T) {
	const lat = 3 * time.Millisecond
	tr := NewDelayTransport(NewMemTransport(2), lat)
	rep := RunTransport(2, costmodel.Uniform(1e-6), tr, func(p *Proc) {
		const k = 8
		if p.Rank() == 0 {
			t0 := time.Now()
			for i := 0; i < k; i++ {
				sendWords[float64](p, 1, 5, []float64{float64(i)})
			}
			if el := time.Since(t0); el >= lat {
				t.Errorf("8 sends took %v; Send must not block on the %v latency", el, lat)
			}
		} else {
			t0 := time.Now()
			for i := 0; i < k; i++ {
				got := recvWords[float64](p, 0, 5, nil)
				if len(got) != 1 || got[0] != float64(i) {
					t.Errorf("recv %d: got %v, want [%d] (per-link FIFO broken)", i, got, i)
				}
			}
			if el := time.Since(t0); el < lat {
				t.Errorf("first frame visible after %v, want >= %v", el, lat)
			}
		}
	})
	if rep.TotalMsgsSent() != 8 {
		t.Errorf("TotalMsgsSent = %d, want 8", rep.TotalMsgsSent())
	}
}

// TestDelayTransportVirtualParity pins the decorator's invisibility to the
// model: a program run over mem and over delay-wrapped mem produces
// bit-identical virtual clocks and Stats.
func TestDelayTransportVirtualParity(t *testing.T) {
	body := func(p *Proc) {
		x := p.AllReduceF64(OpSum, []float64{float64(p.Rank() + 1)})
		p.ComputeFlops(int(x[0]))
		p.Barrier()
	}
	plain := RunTransport(3, costmodel.IPSC860(), NewMemTransport(3), body)
	delayed := RunTransport(3, costmodel.IPSC860(), NewDelayTransport(NewMemTransport(3), time.Millisecond), body)
	for r := 0; r < 3; r++ {
		if plain.Clocks[r] != delayed.Clocks[r] {
			t.Errorf("rank %d clock: %v != %v", r, delayed.Clocks[r], plain.Clocks[r])
		}
		if plain.Stats[r] != delayed.Stats[r] {
			t.Errorf("rank %d stats diverge: %+v != %+v", r, delayed.Stats[r], plain.Stats[r])
		}
	}
}

// TestDelayTransportPeerFailure checks a rank failure still propagates:
// poison passes through and blocked receivers abort instead of waiting for
// a frame that will never be sent.
func TestDelayTransportPeerFailure(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("run with a failing rank did not re-panic")
		}
	}()
	tr := NewDelayTransport(NewMemTransport(2), time.Millisecond)
	RunTransport(2, costmodel.Uniform(1e-6), tr, func(p *Proc) {
		if p.Rank() == 0 {
			panic("rank 0 dies before sending")
		}
		recvWords[float64](p, 0, 9, nil) // must abort via PeerFailure, not hang
	})
}
