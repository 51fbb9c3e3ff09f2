package comm

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// White-box tests of the mailbox's spin, yield-poll, park receive. The
// receiver's state is read off its goroutine's stack — polling in
// spinForPut, or parked in sync.Cond.Wait — so each put lands on the path
// the test names instead of on whichever one the scheduler happened to pick.
// A take with no spin budget is in its yield phase whenever it is in
// spinForPut.

const (
	inSpin = "(*mailbox).spinForPut"
	inPark = "sync.(*Cond).Wait"
)

// takeReq is one take call for spinReceiver to make.
type takeReq struct {
	tag         int
	spin, yield time.Duration
}

// spinReceiver makes one take call per request read from next and forwards
// the message to out. Its name marks the receiver's stack for waitIn.
func spinReceiver(mb *mailbox, next <-chan takeReq, out chan<- Message) {
	for r := range next {
		m, _ := mb.take(r.tag, r.spin, r.yield)
		out <- m
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
	next <- takeReq{1, 10 * time.Second, 0}
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
		next <- takeReq{1, budget, 0}
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
	next <- takeReq{1, long, 0}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{0}})
	expect()
	next <- takeReq{1, long, 0}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{1}})
	mb.put(Message{Tag: 2, Data: []byte{99}})
	mb.put(Message{Tag: 1, Data: []byte{2}})
	expect()
	next <- takeReq{1, long, 0}
	expect()

	// Park path: a 1 ms budget runs out, the receiver parks, and two puts
	// arrive while it sleeps.
	next <- takeReq{1, short, 0}
	waitIn(t, "comm.spinReceiver", inPark)
	mb.put(Message{Tag: 1, Data: []byte{3}})
	mb.put(Message{Tag: 1, Data: []byte{4}})
	expect()
	next <- takeReq{1, short, 0}
	expect()

	// And back to spinning with the park's leftovers still in order.
	mb.put(Message{Tag: 1, Data: []byte{5}})
	next <- takeReq{1, long, 0}
	expect()
	next <- takeReq{1, long, 0}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{6}})
	expect()
	next <- takeReq{2, long, 0}
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

// waitsOf reads mb's wait counts under its lock.
func waitsOf(mb *mailbox) WaitCounts {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.waits
}

// A put that lands while the receiver yield-polls is served there: the
// receiver never parks.
func TestMailboxYieldServesPutWithoutPark(t *testing.T) {
	mb := newMailbox()
	next, out := startReceiver(mb)
	defer close(next)
	start := time.Now()
	next <- takeReq{1, 0, 10 * time.Second}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{7}})
	if m := <-out; m.Tag != 1 || seqOf(m) != 7 {
		t.Fatalf("take returned %+v, want tag 1 payload 7", m)
	}
	if d := time.Since(start); d >= 10*time.Second {
		t.Fatalf("take returned after %v: the put was not seen by the yield phase", d)
	}
	if w := waitsOf(mb); w != (WaitCounts{Yielded: 1}) {
		t.Fatalf("waits = %+v, want one yielded receive", w)
	}
}

// A wait that outlasts both budgets parks, and the put wakes it there.
func TestMailboxParksPastYieldCap(t *testing.T) {
	mb := newMailbox()
	next, out := startReceiver(mb)
	defer close(next)
	next <- takeReq{1, 100 * time.Microsecond, time.Millisecond}
	waitIn(t, "comm.spinReceiver", inPark)
	mb.put(Message{Tag: 1, Data: []byte{7}})
	if m := <-out; m.Tag != 1 || seqOf(m) != 7 {
		t.Fatalf("take returned %+v, want tag 1 payload 7", m)
	}
	if w := waitsOf(mb); w != (WaitCounts{Parked: 1}) {
		t.Fatalf("waits = %+v, want one parked receive", w)
	}
}

func TestMailboxFIFOAcrossSpinYieldAndPark(t *testing.T) {
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

	// Spin phase.
	next <- takeReq{1, long, 0}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{0}})
	expect()
	// Yield phase: three puts land around a message with another tag; the
	// second is found by the next take's first scan.
	next <- takeReq{1, 0, long}
	waitIn(t, "comm.spinReceiver", inSpin)
	mb.put(Message{Tag: 1, Data: []byte{1}})
	mb.put(Message{Tag: 2, Data: []byte{99}})
	mb.put(Message{Tag: 1, Data: []byte{2}})
	expect()
	next <- takeReq{1, 0, long}
	expect()
	// Park phase: both budgets run out and two puts arrive while it sleeps.
	next <- takeReq{1, short, short}
	waitIn(t, "comm.spinReceiver", inPark)
	mb.put(Message{Tag: 1, Data: []byte{3}})
	mb.put(Message{Tag: 1, Data: []byte{4}})
	expect()
	next <- takeReq{1, 0, long}
	expect()
	next <- takeReq{2, 0, 0}
	if m := <-out; m.Tag != 2 || seqOf(m) != 99 {
		t.Fatalf("take(2) returned %+v", m)
	}
	// Payloads 0, 2, 4 and 99 were served by a spin (three of them queued
	// on arrival), 1 by a yield-poll and 3 after a park.
	if w := waitsOf(mb); w != (WaitCounts{Spun: 4, Yielded: 1, Parked: 1}) {
		t.Fatalf("waits = %+v, want {Spun:4 Yielded:1 Parked:1}", w)
	}
}

// lateRankBody has rank 0 reach each of a few barriers 1 ms after rank 1.
func lateRankBody(p *Proc) {
	for i := 0; i < 3; i++ {
		if p.Rank() == 0 {
			time.Sleep(time.Millisecond)
		}
		p.Barrier()
	}
}

// parked sums the run's parked receives, after checking that each rank's
// wait counts add up to the receives it made in this run.
func parked(t *testing.T, rep *Report) (n int64) {
	t.Helper()
	for r, m := range rep.Measured {
		if w := m.Waits; w.Spun+w.Yielded+w.Parked != rep.Stats[r].MsgsRecv {
			t.Errorf("rank %d: waits %+v do not add up to its %d receives", r, w, rep.Stats[r].MsgsRecv)
		}
		n += m.Waits.Parked
	}
	return n
}

// A bound 2-rank run waits out a 1 ms late peer without parking; the same
// body multiplexed onto one worker parks. A transport reused by a second
// run counts that run's receives alone.
func TestPollParksOnlyWhenMultiplexed(t *testing.T) {
	m := costmodel.Uniform(1e-9)
	tr := NewMemTransport(2)
	for run := 0; run < 2; run++ {
		multiplexed := RunMeasuredTransport(2, m, tr, MeasureOpts{Workers: 1}, lateRankBody)
		if parked(t, multiplexed) == 0 {
			t.Errorf("multiplexed run parked no receive: %+v", multiplexed.Measured)
		}
	}
	if runtime.GOMAXPROCS(0) < 2 || len(allowedCPUs) < 2 {
		t.Skipf("a bound 2-rank run needs 2 CPUs (GOMAXPROCS %d, %d allowed)", runtime.GOMAXPROCS(0), len(allowedCPUs))
	}
	// A host busy enough to hold the late rank off its CPU for the whole
	// 20 ms yield budget forces a park; such an attempt is retried.
	var seen []WaitCounts
	for attempt := 0; attempt < 5; attempt++ {
		rep := RunMeasured(2, m, lateRankBody)
		if parked(t, rep) == 0 {
			if rep.Measured[1].Waits.Yielded == 0 {
				t.Errorf("rank 1 waited 1 ms for rank 0 without a yield-poll: %+v", rep.Measured[1].Waits)
			}
			return
		}
		seen = append(seen, rep.Measured[0].Waits, rep.Measured[1].Waits)
	}
	t.Fatalf("every bound run parked; per-rank waits: %+v", seen)
}
