package comm

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// White-box tests of the mailbox's spin-then-park receive. The receiver's
// state is read off its goroutine's stack — spinning in spinForPut, or
// parked in sync.Cond.Wait — so each put lands on the path the test names
// instead of on whichever one the scheduler happened to pick.

const (
	inSpin = "(*mailbox).spinForPut"
	inPark = "sync.(*Cond).Wait"
)

// takeReq is one take call for spinReceiver to make.
type takeReq struct {
	tag  int
	spin time.Duration
}

// spinReceiver makes one take call per request read from next and forwards
// the message to out. Its name marks the receiver's stack for waitIn.
func spinReceiver(mb *mailbox, next <-chan takeReq, out chan<- Message) {
	for r := range next {
		out <- mb.take(r.tag, r.spin)
	}
}

// waitIn blocks until the goroutine running `owner` has `frame` on its
// stack.
func waitIn(t *testing.T, owner, frame string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Microsecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, owner) && strings.Contains(g, frame) {
				return
			}
		}
	}
	t.Fatalf("%s never reached %s", owner, frame)
}

func startReceiver(mb *mailbox) (chan<- takeReq, <-chan Message) {
	next, out := make(chan takeReq), make(chan Message)
	go spinReceiver(mb, next, out)
	return next, out
}

func seqOf(m Message) int { return int(m.Data[0]) }

func TestMailboxSpinReturnsPutDuringSpin(t *testing.T) {
	mb := newMailbox()
	next, out := startReceiver(mb)
	defer close(next)
	start := time.Now()
	next <- takeReq{1, 10 * time.Second}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{7}})
	if m := <-out; m.Tag != 1 || seqOf(m) != 7 {
		t.Fatalf("take returned %+v, want tag 1 payload 7", m)
	}
	// Parking is only reached after the 10 s budget, so the spin saw the put.
	if d := time.Since(start); d >= 10*time.Second {
		t.Fatalf("take returned after %v: the put was not seen by the spin", d)
	}
}

// A message with another tag that arrives during the spin only causes a
// rescan: it stays queued, the receiver keeps waiting, parks once the budget
// is spent, and the matching put wakes it there.
func TestMailboxSpinOtherTagStaysQueued(t *testing.T) {
	const budget = 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		mb := newMailbox()
		next, out := startReceiver(mb)
		start := time.Now()
		next <- takeReq{1, budget}
		waitIn(t, "comm.spinReceiver", inSpin)
		mb.put(Message{Tag: 2, Data: []byte{2}})
		if time.Since(start) >= budget {
			// The deadline may have passed before the put: it was not
			// provably a put during the spin, so try again.
			mb.put(Message{Tag: 1, Data: []byte{1}})
			<-out
			close(next)
			if attempt == 20 {
				t.Fatal("never managed to put within the spin budget")
			}
			continue
		}
		waitIn(t, "comm.spinReceiver", inPark)
		mb.put(Message{Tag: 1, Data: []byte{1}})
		if m := <-out; m.Tag != 1 || seqOf(m) != 1 {
			t.Fatalf("take(1) returned %+v", m)
		}
		close(next)
		mb.mu.Lock()
		defer mb.mu.Unlock()
		if len(mb.pending) != 1 || mb.pending[0].Tag != 2 {
			t.Fatalf("pending = %+v, want the tag-2 message alone", mb.pending)
		}
		return
	}
}

func TestMailboxFIFOAcrossSpinAndPark(t *testing.T) {
	const long, short = 10 * time.Second, time.Millisecond
	mb := newMailbox()
	next, out := startReceiver(mb)
	defer close(next)
	want := 0
	expect := func() {
		t.Helper()
		if m := <-out; m.Tag != 1 || seqOf(m) != want {
			t.Fatalf("take(1) returned %+v, want tag 1 payload %d", m, want)
		}
		want++
	}

	// Spin path: one put wakes the spinning receiver, then two more land
	// around a message with another tag; the second is found by the next
	// take's first scan.
	next <- takeReq{1, long}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{0}})
	expect()
	next <- takeReq{1, long}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{1}})
	mb.put(Message{Tag: 2, Data: []byte{99}})
	mb.put(Message{Tag: 1, Data: []byte{2}})
	expect()
	next <- takeReq{1, long}
	expect()

	// Park path: a 1 ms budget runs out, the receiver parks, and two puts
	// arrive while it sleeps.
	next <- takeReq{1, short}
	waitIn(t, "comm.spinReceiver", inPark)
	mb.put(Message{Tag: 1, Data: []byte{3}})
	mb.put(Message{Tag: 1, Data: []byte{4}})
	expect()
	next <- takeReq{1, short}
	expect()

	// And back to spinning with the park's leftovers still in order.
	mb.put(Message{Tag: 1, Data: []byte{5}})
	next <- takeReq{1, long}
	expect()
	next <- takeReq{1, long}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{6}})
	expect()
	next <- takeReq{2, long}
	if m := <-out; m.Tag != 2 || seqOf(m) != 99 {
		t.Fatalf("take(2) returned %+v", m)
	}
}

// poisonedRecv receives on rank 0 from rank 1 and reports the panic value.
func poisonedRecv(tr *MemTransport, failed chan<- any) {
	defer func() { failed <- recover() }()
	tr.Recv(0, 1, 5)
}

// A poisoned mailbox must not leave a receiver spinning out its budget:
// poison bumps puts, so the spinner rescans, sees dead and panics at once.
func TestPoisonStopsSpinningReceiver(t *testing.T) {
	for _, link := range []bool{false, true} {
		tr := NewMemTransport(2)
		tr.spin = 10 * time.Second
		failed := make(chan any, 1)
		go poisonedRecv(tr, failed)
		waitIn(t, "comm.poisonedRecv", inSpin)
		start := time.Now()
		if link {
			tr.PoisonLink(0, 1)
		} else {
			tr.Poison()
		}
		select {
		case e := <-failed:
			if _, ok := e.(PeerFailure); !ok {
				t.Fatalf("link=%v: receiver panicked with %v, want PeerFailure", link, e)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("link=%v: PeerFailure took %v, want < 100ms", link, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("link=%v: spinning receiver did not see the poison", link)
		}
	}
}

// Receivers spin only in a run that pins every rank to its own OS thread
// over a bare in-memory transport; modeled, multiplexed and decorated runs
// park at once, and a transport reused by such a run stops spinning.
func TestSpinOnlyWhenEveryRankIsPinned(t *testing.T) {
	m := costmodel.Uniform(1e-9)
	procs := runtime.GOMAXPROCS(0)
	shared := NewMemTransport(procs)
	delayed := NewMemTransport(2)
	for _, c := range []struct {
		name string
		tr   *MemTransport
		run  func(tr *MemTransport, body func(p *Proc))
		want time.Duration
	}{
		{"RunMeasured n=GOMAXPROCS", shared, func(tr *MemTransport, body func(p *Proc)) {
			RunMeasuredTransport(procs, m, tr, MeasureOpts{}, body)
		}, memSpin},
		{"RunTransport on the same transport", shared, func(tr *MemTransport, body func(p *Proc)) {
			RunTransport(procs, m, tr, body)
		}, 0},
		{"RunMeasured n=GOMAXPROCS+1", NewMemTransport(procs + 1), func(tr *MemTransport, body func(p *Proc)) {
			RunMeasuredTransport(procs+1, m, tr, MeasureOpts{}, body)
		}, 0},
		{"RunMeasured n=2 Workers=1", NewMemTransport(2), func(tr *MemTransport, body func(p *Proc)) {
			RunMeasuredTransport(2, m, tr, MeasureOpts{Workers: 1}, body)
		}, 0},
		{"RunMeasured over DelayTransport", delayed, func(tr *MemTransport, body func(p *Proc)) {
			RunMeasuredTransport(2, m, NewDelayTransport(tr, time.Microsecond), MeasureOpts{Workers: 2}, body)
		}, 0},
	} {
		spins := make(chan time.Duration, 1)
		c.run(c.tr, func(p *Proc) {
			p.Barrier()
			if p.Rank() == 0 {
				spins <- c.tr.spin
			}
		})
		if got := <-spins; got != c.want {
			t.Errorf("%s: spin %v, want %v", c.name, got, c.want)
		}
	}
}
