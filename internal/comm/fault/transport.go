package fault

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/comm"
)

// wireTag is the single tag fault-injected traffic travels under on the
// inner transport. The fault layer prefixes every payload with a per-link
// sequence number and the application's original tag; the receive side
// restores sequence order and re-applies tag matching, so the inner
// transport's own tag space is never shared with the application.
const wireTag = 1<<30 + 7

// frameHeader is the wire overhead per message: seq uint64 + tag int32.
const frameHeader = 12

// heldFrame is a message withheld by a reorder decision, waiting to be
// emitted after its successor on the link.
type heldFrame struct {
	set   bool
	frame comm.Message
	dup   bool
}

// senderLink is the send-side state of one directed link. The mutex exists
// because held frames are flushed not only by the sending rank (on its next
// send, or before it blocks in Recv) but also by the receiving rank before
// it blocks on this link — the flush that keeps a held final message from
// deadlocking a receiver whose sender has already finished.
type senderLink struct {
	mu   sync.Mutex
	seq  uint64
	held heldFrame
	dead bool // cut by retry-budget exhaustion
}

// recvLink is the receive-side reassembly state of one directed link,
// touched only by the receiving rank's goroutine.
type recvLink struct {
	next    uint64                  // next expected sequence number
	stash   map[uint64]comm.Message // out-of-order arrivals
	pending []comm.Message          // in-order, awaiting tag match
}

// Transport decorates an inner comm.Transport with deterministic fault
// injection per its Plan. All ranks of a run must use the same plan (in one
// process, by sharing one wrapped transport; across processes, by passing
// the same plan string to every process) so that both ends of every link
// agree on the fault schedule.
//
// The decorator preserves the Transport contract — per-(from,to,tag) FIFO,
// exactly-once delivery, PeerFailure poisoning — as long as the plan's
// faults stay within budget; budget exhaustion and kills degrade into the
// PeerFailure path rather than hangs.
type Transport struct {
	inner comm.Transport
	n     int
	plan  *Plan

	send []senderLink // [from*n+to]
	recv []recvLink   // [to*n+from]

	// Per-rank kill bookkeeping, touched only by that rank's goroutine.
	sent   []uint64
	killed []bool

	mu    sync.Mutex
	trace []Event
}

// Wrap decorates inner with fault injection for n ranks under plan.
func Wrap(inner comm.Transport, n int, plan *Plan) *Transport {
	if n <= 0 {
		panic(fmt.Sprintf("fault: Wrap needs n > 0, got %d", n))
	}
	return &Transport{
		inner:  inner,
		n:      n,
		plan:   plan,
		send:   make([]senderLink, n*n),
		recv:   make([]recvLink, n*n),
		sent:   make([]uint64, n),
		killed: make([]bool, n),
	}
}

// record appends a fired fault to the trace.
func (t *Transport) record(e Event) {
	t.mu.Lock()
	t.trace = append(t.trace, e)
	t.mu.Unlock()
}

// Trace returns the fired faults in canonical (from, to, seq, action)
// order. Because every decision is a pure function of (seed, link, seq),
// two runs of the same program with the same plan return identical traces.
func (t *Transport) Trace() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.trace))
	copy(out, t.trace)
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// emit sends one encoded frame (and its duplicate) through the inner
// transport.
func (t *Transport) emit(fr comm.Message, dup bool) {
	t.inner.Send(fr)
	if dup {
		t.inner.Send(fr)
	}
}

// checkKill fires any kill scheduled for the sending rank: the send is
// swallowed, the victim's inbound links are poisoned so its own blocked
// Recvs wake, and the victim panics PeerFailure — from the rest of the
// run's point of view, exactly a crashed rank.
func (t *Transport) checkKill(m comm.Message) {
	from := m.From
	if t.killed[from] {
		m.Release()
		panic(comm.PeerFailure{})
	}
	for _, k := range t.plan.Kills {
		if k.Rank != from {
			continue
		}
		if (k.AfterSends > 0 && t.sent[from] >= uint64(k.AfterSends)) ||
			(k.afterVirtual > 0 && m.Arrive >= k.afterVirtual) {
			t.killed[from] = true
			t.record(Event{From: from, to: from, seq: t.sent[from], Action: "kill", n: int(t.sent[from])})
			// Kill the victim's outgoing links: frames still held for a
			// reorder swap die with the rank, and marking the links dead
			// keeps a peer's flush-on-demand from resurrecting them.
			for q := 0; q < t.n; q++ {
				ls := &t.send[from*t.n+q]
				ls.mu.Lock()
				ls.dead = true
				ls.held = heldFrame{}
				ls.mu.Unlock()
			}
			if lp, ok := t.inner.(comm.LinkPoisoner); ok {
				for q := 0; q < t.n; q++ {
					if q != from {
						lp.PoisonLink(from, q)
					}
				}
			}
			m.Release()
			panic(comm.PeerFailure{})
		}
	}
}

// Send implements comm.Transport.
func (t *Transport) Send(m comm.Message) {
	from, to := m.From, m.To
	if from < 0 || from >= t.n || to < 0 || to >= t.n {
		panic(fmt.Sprintf("fault: send with bad ranks from=%d to=%d n=%d", from, to, t.n))
	}
	t.sent[from]++
	if len(t.plan.Kills) > 0 {
		t.checkKill(m)
	}
	ls := &t.send[from*t.n+to]
	ls.mu.Lock()
	if ls.dead {
		ls.mu.Unlock()
		m.Release()
		return
	}
	seq := ls.seq
	ls.seq++
	ls.mu.Unlock()
	lf := t.plan.faultsFor(from, to)
	arrive := m.Arrive

	// Drop-then-retry: dropped attempts only cost virtual retransmission
	// time (the attempt that finally succeeds is the one that hits the
	// wire); exhausting the budget cuts the link.
	if lf.DropProb > 0 {
		drops, budget := 0, lf.budget()
		for drops <= budget && t.plan.rnd(from, to, seq, saltDrop, uint64(drops)) < lf.DropProb {
			drops++
		}
		if drops > budget {
			ls.mu.Lock()
			ls.dead = true
			ls.held = heldFrame{}
			ls.mu.Unlock()
			t.record(Event{From: from, to: to, seq: seq, Action: "cut", n: drops})
			if lp, ok := t.inner.(comm.LinkPoisoner); ok {
				lp.PoisonLink(to, from)
			}
			m.Release()
			panic(comm.PeerFailure{})
		}
		if drops > 0 {
			// The conversion rounds the product, so no GOARCH fuses it
			// into the addition below (see costmodel.MsgCost).
			d := float64(float64(drops) * lf.RetryDelay)
			arrive += d
			t.record(Event{From: from, to: to, seq: seq, Action: "drop", n: drops, delay: d})
		}
	}

	if lf.DelayProb > 0 && t.plan.rnd(from, to, seq, saltDelay, 0) < lf.DelayProb {
		// Rounded before the addition, as above.
		d := float64(t.plan.rnd(from, to, seq, saltDelayU, 0) * lf.MaxDelay)
		arrive += d
		t.record(Event{From: from, to: to, seq: seq, Action: "delay", delay: d})
	}

	// Take ownership of the payload: the frame gets its own buffer, so a
	// pooled staging buffer is reusable as soon as Send returns (the same
	// copy-out rule the TCP transport follows).
	buf := make([]byte, frameHeader+len(m.Data))
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.Tag))
	copy(buf[frameHeader:], m.Data)
	m.Release()
	fr := comm.Message{From: from, To: to, Tag: wireTag, Arrive: arrive, Data: buf}

	dup := lf.DupProb > 0 && t.plan.rnd(from, to, seq, saltDup, 0) < lf.DupProb
	if dup {
		t.record(Event{From: from, to: to, seq: seq, Action: "dup"})
	}

	ls.mu.Lock()
	if ls.held.set {
		// Complete the adjacent swap scheduled by the previous message:
		// this frame overtakes the held one on the wire.
		held := ls.held
		ls.held = heldFrame{}
		ls.mu.Unlock()
		t.emit(fr, dup)
		t.emit(held.frame, held.dup)
		return
	}
	if lf.ReorderProb > 0 && t.plan.rnd(from, to, seq, saltReorder, 0) < lf.ReorderProb {
		ls.held = heldFrame{set: true, frame: fr, dup: dup}
		ls.mu.Unlock()
		t.record(Event{From: from, to: to, seq: seq, Action: "reorder"})
		return
	}
	ls.mu.Unlock()
	t.emit(fr, dup)
}

// flushLink emits the frame held on one link, if any. Take-under-lock means
// a frame is emitted exactly once even when the sender's flush races the
// receiver's flush-on-demand.
func (t *Transport) flushLink(ls *senderLink) {
	ls.mu.Lock()
	if ls.dead || !ls.held.set {
		ls.mu.Unlock()
		return
	}
	held := ls.held
	ls.held = heldFrame{}
	ls.mu.Unlock()
	t.emit(held.frame, held.dup)
}

// flushHeld emits every frame rank `self` is still holding for a reorder
// swap. It runs at the top of Recv, so a rank flushes its outgoing links
// before it can block. That alone is not enough for liveness — a rank whose
// program ends with a send never Recvs again — so Recv also flushes the one
// incoming link it is about to block on (see below), and Close flushes
// everything that remains.
func (t *Transport) flushHeld(self int) {
	if self < 0 || self >= t.n {
		return
	}
	for to := 0; to < t.n; to++ {
		t.flushLink(&t.send[self*t.n+to])
	}
}

// Recv implements comm.Transport: it pulls frames off the inner transport,
// discards duplicates, restores sequence order, and re-applies tag
// matching, delivering exactly the messages the application sent, in
// per-link FIFO order.
func (t *Transport) Recv(self, from, tag int) comm.Message {
	t.flushHeld(self)
	rs := &t.recv[self*t.n+from]
	for {
		for i, pm := range rs.pending {
			if pm.Tag == tag {
				copy(rs.pending[i:], rs.pending[i+1:])
				rs.pending[len(rs.pending)-1] = comm.Message{}
				rs.pending = rs.pending[:len(rs.pending)-1]
				return pm
			}
		}
		// Flush-on-demand: if the sender is holding this link's next frame
		// for a reorder swap and never communicates again, nobody else will
		// put it on the wire — so the receiver emits it before blocking.
		t.flushLink(&t.send[from*t.n+self])
		fr := t.recvFrame(self, from, tag)
		if len(fr.Data) < frameHeader {
			panic(fmt.Sprintf("fault: runt frame of %d bytes on link %d->%d", len(fr.Data), from, self))
		}
		seq := binary.LittleEndian.Uint64(fr.Data)
		origTag := int(int32(binary.LittleEndian.Uint32(fr.Data[8:])))
		payload := make([]byte, len(fr.Data)-frameHeader)
		copy(payload, fr.Data[frameHeader:])
		arrive := fr.Arrive
		fr.Release()
		m := comm.Message{From: from, To: self, Tag: origTag, Arrive: arrive, Data: payload}
		switch {
		case seq < rs.next:
			// Duplicate of an already-delivered message.
		case seq == rs.next:
			rs.next++
			rs.pending = append(rs.pending, m)
			for {
				nm, ok := rs.stash[rs.next]
				if !ok {
					break
				}
				delete(rs.stash, rs.next)
				rs.pending = append(rs.pending, nm)
				rs.next++
			}
		default:
			if _, have := rs.stash[seq]; !have {
				if rs.stash == nil {
					rs.stash = make(map[uint64]comm.Message)
				}
				rs.stash[seq] = m
			}
		}
	}
}

// recvFrame takes the next frame on link from->self for a receive of tag.
// When the sender has returned, the inner transport's panic names the wire
// tag; it is raised again naming tag, the receive the caller waits for.
func (t *Transport) recvFrame(self, from, tag int) comm.Message {
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(comm.PeerReturned); ok {
				e = comm.PeerReturned{Rank: self, From: from, Tag: tag}
			}
			panic(e)
		}
	}()
	return t.inner.Recv(self, from, wireTag)
}

// RankDone implements comm.RankObserver: when a rank's program finishes,
// any frame still held on its outgoing links goes on the wire, so a peer
// blocked waiting for it wakes up. Emission failures (the rank may be
// unwinding from a PeerFailure and its links torn down) are swallowed —
// RankDone runs during deferred cleanup and must not replace the panic
// already in flight.
func (t *Transport) RankDone(rank int) {
	defer func() { _ = recover() }()
	t.flushHeld(rank)
	if ro, ok := t.inner.(comm.RankObserver); ok {
		ro.RankDone(rank)
	}
}

// Poison implements comm.Poisoner when the inner transport does.
func (t *Transport) Poison() {
	if po, ok := t.inner.(comm.Poisoner); ok {
		po.Poison()
	}
}

// PoisonLink implements comm.LinkPoisoner when the inner transport does.
func (t *Transport) PoisonLink(to, from int) {
	if lp, ok := t.inner.(comm.LinkPoisoner); ok {
		lp.PoisonLink(to, from)
	}
}

// Close flushes any still-held frames (all ranks have finished by the time
// the run closes its transport) and closes the inner transport.
func (t *Transport) Close() error {
	for r := 0; r < t.n; r++ {
		t.flushHeld(r)
	}
	return t.inner.Close()
}
