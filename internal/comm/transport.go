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

// RankObserver is implemented by decorating transports that buffer traffic
// per rank (e.g. the fault injector's reorder hold) and need to know when a
// rank's program has finished, so anything still buffered on its behalf can
// be put on the wire while peers are still receiving. The runners call
// RankDone exactly once per rank, after the rank's body returns or panics.
type RankObserver interface {
	RankDone(rank int)
}

// memSpin is how long a receiver on the in-memory transport spins for a
// put before it parks on the condition variable, when its rank is pinned to
// an OS thread of its own (see runSPMD). A park costs a futex sleep/wake
// round trip per message; a budget shorter than one such wake-up is worse
// than none (a sweep of 0/20/50/200/1000 µs on dsmc-finegrain gave
// 0.259/0.403/0.161/0.054/0.062 s).
const memSpin = 200 * time.Microsecond

// mailbox is an unbounded FIFO of messages from one sender with tag
// matching: a receiver may ask for a specific tag and messages with other
// tags stay queued.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Message
	dead    bool
	// puts counts puts and poisonings, bumped under mu, so a spinning
	// receiver sees either without taking the lock.
	puts atomic.Uint64
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
// none is queued: it spins for up to spin (0: not at all), then parks.
func (mb *mailbox) take(tag int, spin time.Duration) Message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var deadline time.Time
	for {
		for i, m := range mb.pending {
			if m.Tag == tag {
				copy(mb.pending[i:], mb.pending[i+1:])
				mb.pending[len(mb.pending)-1] = Message{}
				mb.pending = mb.pending[:len(mb.pending)-1]
				return m
			}
		}
		if mb.dead {
			panic(PeerFailure{})
		}
		if spin > 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(spin)
			}
			if mb.spinForPut(deadline) {
				continue
			}
		}
		mb.cond.Wait()
	}
}

// spinForPut is called with mu held. It releases mu, spins until puts moves
// or deadline passes, and re-locks; it reports whether puts moved. The
// check after re-locking is what makes parking safe: a put that lands while
// mu is released is seen here instead of having its Signal lost.
func (mb *mailbox) spinForPut(deadline time.Time) bool {
	seen := mb.puts.Load()
	mb.mu.Unlock()
	for i := 1; mb.puts.Load() == seen; i++ {
		if i%64 == 0 && time.Now().After(deadline) {
			break
		}
	}
	mb.mu.Lock()
	return mb.puts.Load() != seen
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
	// spin is the receive spin budget: memSpin while runSPMD runs every
	// rank pinned to its own OS thread, else 0 (park at once).
	spin time.Duration
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

// Recv implements Transport.
func (t *MemTransport) Recv(self, from, tag int) Message {
	return t.boxes[self*t.n+from].take(tag, t.spin)
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
