package comm

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// runTCP is Run over a loopback-TCP mesh.
func runTCP(t *testing.T, n int, body func(p *Proc)) *Report {
	t.Helper()
	tr, err := NewTCPMesh(n)
	if err != nil {
		t.Fatalf("NewTCPMesh(%d): %v", n, err)
	}
	return RunTransport(n, costmodel.Uniform(1e-6), tr, body)
}

func TestTCPPointToPoint(t *testing.T) {
	runTCP(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			sendWords[float64](p, 1, 3, []float64{2.5, -1})
			if got := recvWords[int32](p, 1, 4, nil); got[0] != 9 {
				t.Errorf("rank 0 got %v", got)
			}
		} else {
			if got := recvWords[float64](p, 0, 3, nil); got[0] != 2.5 || got[1] != -1 {
				t.Errorf("rank 1 got %v", got)
			}
			sendWords[int32](p, 0, 4, []int32{9})
		}
	})
}

func TestTCPCollectives(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		runTCP(t, n, func(p *Proc) {
			sum := p.AllReduceScalarI64(OpSum, int64(p.Rank()))
			want := int64(n * (n - 1) / 2)
			if sum != want {
				t.Errorf("n=%d rank=%d sum = %d, want %d", n, p.Rank(), sum, want)
			}
			all := p.AllGatherI32([]int32{int32(p.Rank())})
			for r := range all {
				if all[r][0] != int32(r) {
					t.Errorf("n=%d allgather entry %d wrong", n, r)
				}
			}
			p.Barrier()
		})
	}
}

func TestTCPEmptyMessage(t *testing.T) {
	runTCP(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil)
		} else {
			if got := p.Recv(0, 1); len(got) != 0 {
				t.Errorf("empty message arrived with %d bytes", len(got))
			}
		}
	})
}

func TestTCPVirtualTimeTravels(t *testing.T) {
	// The virtual arrival timestamp must survive the wire.
	tr, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	m := &costmodel.Machine{Alpha: 1, Beta: 0.5, Flop: 1, Mem: 1, Name: "test"}
	RunTransport(2, m, tr, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(10)
			p.Send(1, 1, make([]byte, 10)) // arrives at 10 + 1 + 5 = 16
		} else {
			p.Recv(0, 1)
			if p.Clock() != 16 {
				t.Errorf("receiver clock = %v, want 16", p.Clock())
			}
		}
	})
}

func TestTCPManyMessages(t *testing.T) {
	const rounds = 200
	runTCP(t, 3, func(p *Proc) {
		next := (p.Rank() + 1) % 3
		prev := (p.Rank() + 2) % 3
		for i := 0; i < rounds; i++ {
			sendWords[int32](p, next, 1, []int32{int32(i)})
			if got := recvWords[int32](p, prev, 1, nil)[0]; got != int32(i) {
				t.Fatalf("round %d: got %d", i, got)
			}
		}
	})
}

// freeAddrs reserves n distinct loopback addresses by briefly listening.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func TestTCPEndpointMesh(t *testing.T) {
	// The multi-process path: every endpoint independently listens and
	// dials (here from separate goroutines standing in for processes).
	const n = 4
	addrs := freeAddrs(t, n)
	var wg sync.WaitGroup
	sums := make([]int64, n)
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := NewTCPEndpoint(rank, addrs, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer tr.Close()
			clock, _ := RunRank(rank, n, costmodel.IPSC860(), tr, func(p *Proc) {
				sums[rank] = p.AllReduceScalarI64(OpSum, int64(rank+1))
				p.Barrier()
			})
			if clock <= 0 {
				errs[rank] = fmt.Errorf("rank %d: zero clock", rank)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if sums[r] != n*(n+1)/2 {
			t.Errorf("rank %d sum = %d, want %d", r, sums[r], n*(n+1)/2)
		}
	}
}

func TestTCPEndpointSingleRank(t *testing.T) {
	tr, err := NewTCPEndpoint(0, []string{"127.0.0.1:0"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	clock, _ := RunRank(0, 1, costmodel.IPSC860(), tr, func(p *Proc) {
		if got := p.AllReduceScalarI64(OpSum, 7); got != 7 {
			t.Errorf("single-rank allreduce = %d", got)
		}
	})
	_ = clock
}

func TestTCPEndpointBadRank(t *testing.T) {
	if _, err := NewTCPEndpoint(5, []string{"a", "b"}, time.Second); err == nil {
		t.Error("bad rank accepted")
	}
}

func TestTCPEndpointDialTimeout(t *testing.T) {
	addrs := freeAddrs(t, 2)
	// Rank 0 dials rank 1 which never starts: must time out, not hang.
	start := time.Now()
	_, err := NewTCPEndpoint(0, addrs, 600*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestTCPEndpointRefusedPortBackoff(t *testing.T) {
	// Rank 1's address refuses connections (nothing ever listens there).
	// The dial loop must retry with backoff and fail once the deadline
	// passes: promptly after it (no busy-spin overshoot, no early give-up).
	addrs := freeAddrs(t, 2)
	const deadline = 500 * time.Millisecond
	start := time.Now()
	_, err := NewTCPEndpoint(0, addrs, deadline)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dialling a refused port succeeded")
	}
	if elapsed < deadline/2 {
		t.Fatalf("gave up after %v, before the %v deadline", elapsed, deadline)
	}
	if elapsed > deadline+2*time.Second {
		t.Fatalf("refused port took %v to fail, deadline was %v", elapsed, deadline)
	}
}

// TestTCPEndpointOnPreBoundListeners: every rank reserves its listener up
// front (so the global address list is known before anyone dials), then the
// mesh forms from the already-bound listeners — no close-and-rebind race on
// the reserved ports.
func TestTCPEndpointOnPreBoundListeners(t *testing.T) {
	const n = 3
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	sums := make([]int64, n)
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := newTCPEndpointOn(lns[rank], rank, addrs, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer tr.Close()
			RunRank(rank, n, costmodel.IPSC860(), tr, func(p *Proc) {
				sums[rank] = p.AllReduceScalarI64(OpSum, int64(rank+1))
				p.Barrier()
			})
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if sums[r] != n*(n+1)/2 {
			t.Errorf("rank %d sum = %d, want %d", r, sums[r], n*(n+1)/2)
		}
	}
}

func TestTCPEndpointOnValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range rank: rejected, and the listener is closed for us.
	if _, err := newTCPEndpointOn(ln, 9, []string{"a", "b"}, time.Second); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Error("listener still accepting after a rejected rank")
	}
	// A multi-rank mesh cannot form without a bound listener.
	if _, err := newTCPEndpointOn(nil, 0, []string{"a", "b"}, time.Second); err == nil {
		t.Error("nil listener accepted for a 2-rank mesh")
	}
	// A single-rank "mesh" needs no listener at all.
	tr, err := newTCPEndpointOn(nil, 0, []string{"ignored"}, time.Second)
	if err != nil {
		t.Fatalf("single-rank endpoint: %v", err)
	}
	tr.Close()
}
