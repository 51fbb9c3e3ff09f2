package comm

import (
	"sync"
	"time"
)

// DelayTransport decorates another transport with a fixed real-time wire
// latency: every frame becomes visible to its receiver `latency` after Send
// returned, delivered by a per-link courier goroutine so per-link FIFO order
// is preserved. Send itself never blocks on the latency.
//
// The point is measured mode (RunMeasured). The in-memory transport delivers
// instantly, so on real hardware a blocking receive only ever waits for peer
// *skew*, and there is no window for split-phase collectives to hide. A
// DelayTransport restores the property the paper's machines had — a message
// put on the wire takes real time to arrive — which makes the receive wait
// in a blocking executor real idle time, and lets a split-phase executor
// overlap it with interior computation. Virtual-time accounting is untouched:
// modeled clocks and Stats are bit-identical with or without the decorator.
type DelayTransport struct {
	inner   Transport
	latency time.Duration

	mu     sync.Mutex
	links  map[int]*delayLink // keyed by to*n + from (n unknown: use pair key)
	closed bool
	wg     sync.WaitGroup
}

// delayLink is one directed link's courier: an unbounded FIFO of frames,
// each delivered to the inner transport once its latency elapsed.
type delayLink struct {
	mu   sync.Mutex
	cond sync.Cond
	q    []delayedFrame
	busy bool // a frame is off the queue and not yet delivered
	stop bool
}

type delayedFrame struct {
	m  Message
	at time.Time // earliest delivery instant
}

// NewDelayTransport wraps inner so every message arrives `latency` of real
// time after it was sent. Latency must be positive.
func NewDelayTransport(inner Transport, latency time.Duration) *DelayTransport {
	if latency <= 0 {
		panic("comm: NewDelayTransport needs a positive latency")
	}
	return &DelayTransport{
		inner:   inner,
		latency: latency,
		links:   map[int]*delayLink{},
	}
}

// Send implements Transport: the frame is queued on its link's courier and
// Send returns immediately.
func (t *DelayTransport) Send(m Message) {
	key := m.To<<16 | m.From
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return // frames sent after Close are dropped, like a closed socket
	}
	l := t.links[key]
	if l == nil {
		l = &delayLink{}
		l.cond.L = &l.mu
		t.links[key] = l
		t.wg.Add(1)
		go t.courier(l)
	}
	t.mu.Unlock()
	l.mu.Lock()
	l.q = append(l.q, delayedFrame{m: m, at: time.Now().Add(t.latency)})
	l.mu.Unlock()
	l.cond.Signal()
}

// courier drains one link in FIFO order, sleeping each frame's remaining
// latency before handing it to the inner transport.
func (t *DelayTransport) courier(l *delayLink) {
	defer t.wg.Done()
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.stop {
			l.cond.Wait()
		}
		if l.stop {
			l.mu.Unlock()
			return
		}
		f := l.q[0]
		copy(l.q, l.q[1:])
		l.q[len(l.q)-1] = delayedFrame{}
		l.q = l.q[:len(l.q)-1]
		l.busy = true
		l.mu.Unlock()
		if d := time.Until(f.at); d > 0 {
			time.Sleep(d)
		}
		ok := deliver(t.inner, f.m)
		l.mu.Lock()
		l.busy = false
		// The inner link is dead (e.g. poisoned after a peer failure): stop
		// the courier and drop what is still queued, like a broken socket.
		// Receivers are woken by the poison itself.
		l.stop = l.stop || !ok
		stop := l.stop
		l.mu.Unlock()
		l.cond.Broadcast() // a drain may wait for this delivery
		if stop {
			return
		}
	}
}

// deliver hands m to the inner transport, absorbing a delivery panic
// (PeerFailure on a poisoned link) into a false return.
func deliver(tr Transport, m Message) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	tr.Send(m)
	return true
}

// Recv implements Transport by delegating to the inner transport (delivery
// time was already paid by the courier).
func (t *DelayTransport) Recv(self, from, tag int) Message {
	return t.inner.Recv(self, from, tag)
}

// Close stops the couriers (dropping frames still queued), waits for frames
// mid-delivery, then closes the inner transport. The runners only call it
// after every rank finished, so a healthy run has nothing queued.
func (t *DelayTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	links := make([]*delayLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		l.stop = true
		l.mu.Unlock()
		l.cond.Broadcast()
	}
	t.wg.Wait()
	return t.inner.Close()
}

// Poison implements Poisoner when the inner transport does.
func (t *DelayTransport) Poison() {
	if po, ok := t.inner.(Poisoner); ok {
		po.Poison()
	}
}

// PoisonLink implements LinkPoisoner when the inner transport does.
func (t *DelayTransport) PoisonLink(to, from int) {
	if lp, ok := t.inner.(LinkPoisoner); ok {
		lp.PoisonLink(to, from)
	}
}

// RankDone implements RankObserver: it waits until the couriers have
// delivered every frame the finished rank put on the wire, then informs the
// inner transport, which may then fail receives from the rank that find no
// match.
func (t *DelayTransport) RankDone(rank int) {
	t.mu.Lock()
	var links []*delayLink
	for key, l := range t.links {
		if key&0xffff == rank {
			links = append(links, l)
		}
	}
	t.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		for (len(l.q) > 0 || l.busy) && !l.stop {
			l.cond.Wait()
		}
		l.mu.Unlock()
	}
	if ro, ok := t.inner.(RankObserver); ok {
		ro.RankDone(rank)
	}
}
