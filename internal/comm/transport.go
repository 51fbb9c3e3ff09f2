// Package comm provides the message-passing substrate the CHAOS runtime is
// built on: an SPMD harness in which each logical processor runs as a
// goroutine, exchanging messages through a Transport (in-memory channels by
// default, TCP over localhost optionally), with virtual-time accounting per
// the costmodel package.
//
// The programming model mirrors the iPSC/860 primitives the paper used:
// blocking tagged point-to-point sends and receives, plus collectives
// (barrier, broadcast, reduce, allreduce, gather, allgather, alltoallv)
// built from point-to-point messages so that their modeled cost emerges from
// the machine model.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one point-to-point message. Arrive is the virtual time at which
// the message becomes available at the receiver.
type Message struct {
	From, To, Tag int
	Arrive        float64
	Data          []byte
	// pool, when non-nil, is the arena Data was drawn from. Whoever ends the
	// payload's lifetime (the TCP writer after copying it out, or the typed
	// receive paths after decoding it) calls Release to recycle the buffer;
	// see byteArena for the full ownership rule.
	pool *byteArena
}

// Release returns a pooled payload to its arena. It is a no-op for
// unpooled messages and must only be called once the payload can no longer
// be read (after the transport copied it out, or after the receiver decoded
// it).
func (m *Message) Release() {
	if m.pool == nil {
		return
	}
	m.pool.put(m.Data)
	m.pool = nil
	m.Data = nil
}

// Transport moves messages between ranks. Implementations must deliver
// messages between a fixed (from, to) pair in send order; Recv blocks until
// a message with the requested source and tag is available.
type Transport interface {
	// Send enqueues m for delivery to m.To. It must not block indefinitely.
	Send(m Message)
	// Recv returns the oldest pending message from `from` to `self` whose
	// tag equals `tag`, blocking until one arrives.
	Recv(self, from, tag int) Message
	// Close releases transport resources. After Close, behaviour of Send
	// and Recv is undefined.
	Close() error
}

// PeerFailure is the panic value raised on ranks blocked in Recv when
// another rank of the same run has panicked (see Transport poisoning in
// Run): without it, one failing rank would deadlock every peer blocked on
// a message that will never arrive.
type PeerFailure struct{}

func (PeerFailure) String() string { return "comm: a peer rank failed" }

// PeerReturned is the panic value of a receive on rank Rank, for a message
// with tag Tag from rank From, after From's body returned without sending
// it (see RankDone). Its message names the collective a reserved tag
// belongs to.
type PeerReturned struct{ Rank, From, Tag int }

func (e PeerReturned) String() string {
	tag := fmt.Sprint(e.Tag)
	if name, ok := collectiveOf[e.Tag]; ok {
		tag += " (" + name + ")"
	}
	return fmt.Sprintf("comm: rank %d waits for a message with tag %s from rank %d, which has returned", e.Rank, tag, e.From)
}

// Poisoner is implemented by transports that can wake all blocked receivers
// after a rank failure.
type Poisoner interface {
	Poison()
}

// LinkPoisoner is implemented by transports that can poison a single
// directed link: after PoisonLink(to, from), a Recv on rank `to` for
// messages from `from` panics PeerFailure once its pending queue drains,
// instead of blocking forever. Fault injectors use this to model a killed
// link without taking down the whole mesh.
type LinkPoisoner interface {
	PoisonLink(to, from int)
}

// RankObserver is implemented by transports that need to know when a
// rank's program has finished: a decorator that buffers traffic per rank
// (e.g. the fault injector's reorder hold) puts anything still buffered on
// its behalf on the wire while peers are still receiving, and the
// in-memory transport fails receives that rank can no longer serve. The
// runners call RankDone exactly once per rank: after the rank's body
// returns, or, when it panicked, after the transport has been poisoned.
type RankObserver interface {
	RankDone(rank int)
}

// memSpin and memYield are how a receiver on the in-memory transport waits
// for a put when its rank is pinned to an OS thread bound to a CPU of its own
// (see runSPMD): it spins for memSpin, then polls with an OS yield between
// checks for up to memYield more, and only then parks on the condition
// variable. A park costs the late peer a futex wake-up, 80–125 µs on a
// 2-vCPU host; a yield-poll sees the put within one sched_yield and lends
// the CPU to any runnable thread meanwhile. Measured on a 2-vCPU host, a
// full-size 2-rank run of each benchmark workload parks no receive (31 on
// kernel-remap with the earlier 200 µs spin-then-park), and kernel-remap's
// wall fell 7.7 % in the median of 10 alternating pairs. A longer pure spin
// burns the CPU an oversubscribed peer needs. Yield-polling relies on the
// binding: with both ranks' threads free to share one CPU, 33 AllReduces
// took ~390 µs instead of ~55 µs.
const (
	memSpin  = 5 * time.Microsecond
	memYield = 20 * time.Millisecond
)

// WaitCounts counts one rank's receives on the in-memory transport by the
// wait phase that served them. A message already queued counts as spun.
type WaitCounts struct {
	Spun, Yielded, Parked int64
}

// mailbox is an unbounded FIFO of messages from one sender with tag
// matching: a receiver may ask for a specific tag and messages with other
// tags stay queued.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Message
	dead    bool
	// done is set once the sending rank's body has returned: it sends
	// nothing more, so a receive that finds no queued match must fail.
	done bool
	// puts counts puts and poisonings, bumped under mu, so a polling
	// receiver sees either without taking the lock.
	puts atomic.Uint64
	// waits is bumped under mu by take.
	waits WaitCounts
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	mb.puts.Add(1)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// take removes and returns the oldest message with tag, waiting for one if
// none is queued: it spins for spin, then polls with an OS yield between
// checks until spin+yield has passed since the wait began, then parks. Zero
// budgets skip their phase. It returns false, and no message, when none is
// queued and the sender has finished (see finish).
func (mb *mailbox) take(tag int, spin, yield time.Duration) (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var start time.Time
	served := &mb.waits.Spun
	for {
		for i, m := range mb.pending {
			if m.Tag == tag {
				copy(mb.pending[i:], mb.pending[i+1:])
				mb.pending[len(mb.pending)-1] = Message{}
				mb.pending = mb.pending[:len(mb.pending)-1]
				*served++
				return m, true
			}
		}
		if mb.dead {
			panic(PeerFailure{})
		}
		if mb.done {
			return Message{}, false
		}
		// One clock read per pass: the first pass starts the wait at zero.
		var waited time.Duration
		if spin+yield > 0 {
			if start.IsZero() {
				start = time.Now()
			} else {
				waited = time.Since(start)
			}
		}
		switch {
		case waited < spin:
			mb.spinForPut(start.Add(spin), false)
		case waited < spin+yield:
			served = &mb.waits.Yielded
			mb.spinForPut(start.Add(spin+yield), true)
		default:
			served = &mb.waits.Parked
			mb.cond.Wait()
		}
	}
}

// spinForPut is called with mu held. It releases mu, polls until puts moves
// or deadline passes — back to back, or with an OS yield between checks when
// yield is set — and re-locks. The rescan after re-locking is what makes
// parking safe: a put that lands while mu is released is seen there instead
// of having its Signal lost.
func (mb *mailbox) spinForPut(deadline time.Time, yield bool) {
	seen := mb.puts.Load()
	mb.mu.Unlock()
	for i := 1; mb.puts.Load() == seen; i++ {
		if yield {
			osYield()
		}
		if (yield || i%64 == 0) && time.Now().After(deadline) {
			break
		}
	}
	mb.mu.Lock()
}

// finish marks the sender finished and wakes every waiter.
func (mb *mailbox) finish() {
	mb.mu.Lock()
	mb.done = true
	mb.puts.Add(1)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// poison wakes every waiter with a PeerFailure panic.
func (mb *mailbox) poison() {
	mb.mu.Lock()
	mb.dead = true
	mb.puts.Add(1)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// MemTransport delivers messages through in-process queues. It is safe for
// concurrent use by all ranks.
type MemTransport struct {
	n     int
	boxes []*mailbox // boxes[to*n+from]
	// spin and yield are the receive wait budgets: memSpin and memYield
	// while runSPMD runs every rank on an OS thread bound to its own CPU,
	// else 0 (park at once).
	spin, yield time.Duration
}

// NewMemTransport returns an in-memory transport connecting n ranks.
func NewMemTransport(n int) *MemTransport {
	t := &MemTransport{n: n, boxes: make([]*mailbox, n*n)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

// Send implements Transport.
func (t *MemTransport) Send(m Message) {
	if m.To < 0 || m.To >= t.n || m.From < 0 || m.From >= t.n {
		panic(fmt.Sprintf("comm: send with bad ranks from=%d to=%d n=%d", m.From, m.To, t.n))
	}
	t.boxes[m.To*t.n+m.From].put(m)
}

// Recv implements Transport. A receive from a rank whose body has returned
// (see RankDone) that finds no queued match panics, naming the receive.
func (t *MemTransport) Recv(self, from, tag int) Message {
	m, ok := t.boxes[self*t.n+from].take(tag, t.spin, t.yield)
	if !ok {
		panic(PeerReturned{Rank: self, From: from, Tag: tag})
	}
	return m
}

// RankDone implements RankObserver for a rank whose body returned: it
// sends nothing more, so every receive from it that finds no queued match
// fails at once instead of waiting forever.
func (t *MemTransport) RankDone(rank int) {
	for to := 0; to < t.n; to++ {
		t.boxes[to*t.n+rank].finish()
	}
}

// waits sums rank's receive wait counts over its inbound links.
func (t *MemTransport) waits(rank int) WaitCounts {
	var w WaitCounts
	for _, mb := range t.boxes[rank*t.n : (rank+1)*t.n] {
		mb.mu.Lock()
		w.Spun += mb.waits.Spun
		w.Yielded += mb.waits.Yielded
		w.Parked += mb.waits.Parked
		mb.mu.Unlock()
	}
	return w
}

// setWait sets the receive wait budgets and zeroes the wait counts and the
// finished marks, so a transport reused by another run reports that run's
// waits alone and serves its ranks afresh.
func (t *MemTransport) setWait(spin, yield time.Duration) {
	t.spin, t.yield = spin, yield
	for _, mb := range t.boxes {
		mb.mu.Lock()
		mb.waits = WaitCounts{}
		mb.done = false
		mb.mu.Unlock()
	}
}

// Close implements Transport.
func (t *MemTransport) Close() error { return nil }

// Poison implements Poisoner: all blocked and future Recvs panic with
// PeerFailure.
func (t *MemTransport) Poison() {
	for _, mb := range t.boxes {
		mb.poison()
	}
}

// PoisonLink implements LinkPoisoner for one directed (from -> to) link.
func (t *MemTransport) PoisonLink(to, from int) {
	if to < 0 || to >= t.n || from < 0 || from >= t.n {
		panic(fmt.Sprintf("comm: PoisonLink with bad ranks to=%d from=%d n=%d", to, from, t.n))
	}
	t.boxes[to*t.n+from].poison()
}
