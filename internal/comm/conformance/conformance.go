// Package conformance is a reusable test suite for implementations of
// comm.Transport. Any transport — in-memory, TCP, or either wrapped in the
// fault injector — must pass the same contract checks:
//
//   - per-(from, to, tag) FIFO delivery;
//   - tag matching (messages with other tags stay queued, in order);
//   - payload and virtual-arrival integrity;
//   - arena ownership discipline for packed sends (the caller's source is
//     reusable the moment SendPacked returns, and a released view recycles
//     the payload);
//   - the typed all-to-all (one message per pair, empty lists included, the
//     caller's own entry passed through, receive lists reused);
//   - PeerFailure poisoning (a poisoned transport wakes blocked receivers
//     instead of hanging them).
//
// Use it from a transport's tests as:
//
//	conformance.RunConformance(t, func(n int) (comm.Transport, error) { ... })
package conformance

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// Factory builds a fresh transport connecting n ranks. Each subtest gets
// its own transport; the suite closes it.
type Factory func(n int) (comm.Transport, error)

// Run executes the full conformance suite against transports built by
// factory.
func RunConformance(t *testing.T, factory Factory) {
	t.Run("PointToPointFIFO", func(t *testing.T) { testFIFO(t, factory) })
	t.Run("TagMatching", func(t *testing.T) { testTagMatching(t, factory) })
	t.Run("MultiPeerManyTags", func(t *testing.T) { testMultiPeer(t, factory) })
	t.Run("EmptyMessage", func(t *testing.T) { testEmpty(t, factory) })
	t.Run("PayloadIntegrity", func(t *testing.T) { testPayloadIntegrity(t, factory) })
	t.Run("VirtualArrival", func(t *testing.T) { testVirtualArrival(t, factory) })
	t.Run("ArenaOwnership", func(t *testing.T) { testArenaOwnership(t, factory) })
	t.Run("TypedAllToAll", func(t *testing.T) { testTypedAllToAll(t, factory) })
	t.Run("PeerFailurePoisoning", func(t *testing.T) { testPoisoning(t, factory) })
}

// sendVal sends v to rank to as a one-value packed message.
func sendVal(p *comm.Proc, to, tag int, v float64) {
	p.PackF64(1)[0] = v
	p.SendPacked(to, tag)
}

// recvVal receives a one-value message and returns its value.
func recvVal(p *comm.Proc, from, tag int) float64 {
	v := p.RecvF64View(from, tag)[0]
	p.ReleaseView()
	return v
}

// run executes body as an n-rank SPMD program over a fresh transport.
func run(t *testing.T, factory Factory, n int, body func(p *comm.Proc)) {
	t.Helper()
	tr, err := factory(n)
	if err != nil {
		t.Fatalf("factory(%d): %v", n, err)
	}
	comm.RunTransport(n, costmodel.Uniform(1e-9), tr, body)
}

// testFIFO checks that messages between one (from, to) pair with one tag
// arrive in send order.
func testFIFO(t *testing.T, factory Factory) {
	const rounds = 150
	run(t, factory, 2, func(p *comm.Proc) {
		if p.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				sendVal(p, 1, 7, float64(i))
			}
		} else {
			for i := 0; i < rounds; i++ {
				if got := recvVal(p, 0, 7); got != float64(i) {
					t.Errorf("message %d arrived as %v: FIFO violated", i, got)
					return
				}
			}
		}
	})
}

// testTagMatching checks that a receiver can consume tags out of send
// order, and that same-tag order is preserved while other tags are queued.
func testTagMatching(t *testing.T, factory Factory) {
	run(t, factory, 2, func(p *comm.Proc) {
		if p.Rank() == 0 {
			sendVal(p, 1, 1, 10)
			sendVal(p, 1, 2, 20)
			sendVal(p, 1, 1, 11)
			sendVal(p, 1, 3, 30)
		} else {
			if got := recvVal(p, 0, 3); got != 30 {
				t.Errorf("tag 3 delivered %v, want 30", got)
			}
			if got := recvVal(p, 0, 1); got != 10 {
				t.Errorf("tag 1 first delivery %v, want 10", got)
			}
			if got := recvVal(p, 0, 2); got != 20 {
				t.Errorf("tag 2 delivered %v, want 20", got)
			}
			if got := recvVal(p, 0, 1); got != 11 {
				t.Errorf("tag 1 second delivery %v, want 11", got)
			}
		}
	})
}

// testMultiPeer stresses per-link FIFO with every rank talking to every
// other rank on two tags concurrently.
func testMultiPeer(t *testing.T, factory Factory) {
	const n, rounds = 4, 40
	run(t, factory, n, func(p *comm.Proc) {
		for i := 0; i < rounds; i++ {
			for d := 1; d < n; d++ {
				to := (p.Rank() + d) % n
				sendVal(p, to, 5, float64(p.Rank()*1000+i))
				sendVal(p, to, 6, float64(p.Rank()*1000-i))
			}
			for d := 1; d < n; d++ {
				from := (p.Rank() - d + n) % n
				if got := recvVal(p, from, 5); got != float64(from*1000+i) {
					t.Errorf("round %d from %d tag 5: got %v", i, from, got)
					return
				}
				if got := recvVal(p, from, 6); got != float64(from*1000-i) {
					t.Errorf("round %d from %d tag 6: got %v", i, from, got)
					return
				}
			}
		}
	})
}

// testEmpty checks zero-length payloads survive the wire.
func testEmpty(t *testing.T, factory Factory) {
	run(t, factory, 2, func(p *comm.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil)
			p.Send(1, 1, []byte{})
		} else {
			for i := 0; i < 2; i++ {
				if got := p.Recv(0, 1); len(got) != 0 {
					t.Errorf("empty message %d arrived with %d bytes", i, len(got))
				}
			}
		}
	})
}

// testPayloadIntegrity round-trips deterministic pseudo-random payloads of
// many sizes, including sizes spanning multiple arena capacity classes.
func testPayloadIntegrity(t *testing.T, factory Factory) {
	sizes := []int{1, 7, 63, 64, 65, 300, 1024, 5000}
	fill := func(size, salt int) []byte {
		b := make([]byte, size)
		x := uint32(size*2654435761 + salt)
		for i := range b {
			x = x*1664525 + 1013904223
			b[i] = byte(x >> 24)
		}
		return b
	}
	run(t, factory, 2, func(p *comm.Proc) {
		if p.Rank() == 0 {
			for _, size := range sizes {
				p.Send(1, 9, fill(size, 1))
			}
		} else {
			for _, size := range sizes {
				got := p.Recv(0, 9)
				want := fill(size, 1)
				if len(got) != len(want) {
					t.Errorf("size %d: arrived with %d bytes", size, len(got))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("size %d: byte %d corrupted", size, i)
						break
					}
				}
			}
		}
	})
}

// testVirtualArrival checks the virtual arrival timestamp survives the
// transport: the receiver's clock advances at least to the modeled arrival
// (fault-injected transports may delay further, never run early).
func testVirtualArrival(t *testing.T, factory Factory) {
	tr, err := factory(2)
	if err != nil {
		t.Fatalf("factory(2): %v", err)
	}
	m := &costmodel.Machine{Alpha: 1, Beta: 0.5, Flop: 1, Mem: 1, Name: "conformance"}
	comm.RunTransport(2, m, tr, func(p *comm.Proc) {
		if p.Rank() == 0 {
			p.Compute(10)
			p.Send(1, 1, make([]byte, 10)) // arrives at 10 + 1 + 5 = 16
		} else {
			p.Recv(0, 1)
			if p.Clock() < 16 {
				t.Errorf("receiver clock = %v, want >= 16", p.Clock())
			}
		}
	})
}

// testArenaOwnership exercises the pooled send paths: the source slice is
// copied into a packed message and mutated immediately after SendPacked
// (legal, since the payload is the arena's from then on), and receivers
// read through a view whose release recycles the payload into the sender's
// arena. Any ownership violation shows up as corrupted values.
func testArenaOwnership(t *testing.T, factory Factory) {
	const rounds = 120
	run(t, factory, 3, func(p *comm.Proc) {
		next := (p.Rank() + 1) % 3
		prev := (p.Rank() + 2) % 3
		src := make([]float64, 32)
		for i := 0; i < rounds; i++ {
			for k := range src {
				src[k] = float64(p.Rank()*1_000_000 + i*100 + k)
			}
			copy(p.PackF64(len(src)), src)
			p.SendPacked(next, 4)
			for k := range src {
				src[k] = -1 // scribble over the staging source: must not affect the payload
			}
			dst := p.RecvF64View(prev, 4)
			if len(dst) != 32 {
				t.Errorf("round %d: received %d values, want 32", i, len(dst))
				return
			}
			for k, v := range dst {
				if want := float64(prev*1_000_000 + i*100 + k); v != want {
					t.Errorf("round %d value %d: %v, want %v (arena ownership violated)", i, k, v, want)
					return
				}
			}
			p.ReleaseView()
		}
	})
}

// testTypedAllToAll runs AllToAllI32 twice and AllToAllF64 once on three
// ranks. In the first round every list holds two values; in the second the
// list from f to t holds (f+t)%3, so some are empty and every one fits the
// receive list the first round left, which the second must decode into.
// Each call must send one message per peer and pass the own entry through
// uncopied; send lists are scribbled over once a call returns (staging).
func testTypedAllToAll(t *testing.T, factory Factory) {
	list := func(from, to, round int) []int32 {
		xs := make([]int32, 2-round*(2-(from+to)%3))
		for k := range xs {
			xs[k] = int32(1000*from + 100*to + 10*round + k)
		}
		return xs
	}
	run(t, factory, 3, func(p *comm.Proc) {
		me := p.Rank()
		var recv [][]int32
		var first [3]*int32
		for round := 0; round < 2; round++ {
			send := [][]int32{list(me, 0, round), list(me, 1, round), list(me, 2, round)}
			sent := p.Stats().MsgsSent
			recv = p.AllToAllI32(send, recv)
			if d := p.Stats().MsgsSent - sent; d != 2 {
				t.Errorf("rank %d round %d: %d messages, want 2", me, round, d)
			}
			if len(send[me]) > 0 && &recv[me][0] != &send[me][0] {
				t.Errorf("rank %d round %d: own entry was copied", me, round)
			}
			for _, xs := range send {
				clear(xs)
			}
			for from, xs := range recv {
				switch {
				case from == me:
				case !slices.Equal(xs, list(from, me, round)):
					t.Errorf("rank %d round %d from %d: got %v, want %v", me, round, from, xs, list(from, me, round))
				case round == 0:
					first[from] = &xs[0]
				case len(xs) > 0 && &xs[0] != first[from]:
					t.Errorf("rank %d from %d: the receive list was not reused", me, from)
				}
			}
		}
		send := [][]float64{{0.5}, {1.5}, {2.5}}
		send[me] = nil
		for from, xs := range p.AllToAllF64(send, nil) {
			if from != me && !slices.Equal(xs, []float64{float64(me) + 0.5}) || from == me && xs != nil {
				t.Errorf("rank %d from %d: got %v", me, from, xs)
			}
		}
	})
}

// testPoisoning checks that transports implementing comm.Poisoner wake a
// blocked receiver with a PeerFailure panic instead of leaving it hung.
func testPoisoning(t *testing.T, factory Factory) {
	tr, err := factory(2)
	if err != nil {
		t.Fatalf("factory(2): %v", err)
	}
	defer tr.Close()
	po, ok := tr.(comm.Poisoner)
	if !ok {
		t.Skipf("%T does not implement comm.Poisoner", tr)
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		tr.Recv(1, 0, 99) // no such message is ever sent
	}()
	po.Poison()
	if _, isPeerFailure := (<-done).(comm.PeerFailure); !isPeerFailure {
		t.Error("poisoned Recv did not panic with comm.PeerFailure")
	}
}
