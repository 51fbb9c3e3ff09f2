package comm

import (
	"fmt"

	"repro/internal/costmodel"
)

// Stats accumulates per-processor accounting in virtual seconds and raw
// message counts. ComputeTime is time spent in application work (Compute,
// ComputeFlops, ComputeMem); CommTime is time spent inside communication
// calls, including waiting for messages, matching the paper's definition of
// communication time.
type Stats struct {
	ComputeTime float64
	CommTime    float64
	MsgsSent    int64
	BytesSent   int64
	MsgsRecv    int64
	BytesRecv   int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ComputeTime += other.ComputeTime
	s.CommTime += other.CommTime
	s.MsgsSent += other.MsgsSent
	s.BytesSent += other.BytesSent
	s.MsgsRecv += other.MsgsRecv
	s.BytesRecv += other.BytesRecv
}

// Sub returns s minus other, used to compute per-phase deltas.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		ComputeTime: s.ComputeTime - other.ComputeTime,
		CommTime:    s.CommTime - other.CommTime,
		MsgsSent:    s.MsgsSent - other.MsgsSent,
		BytesSent:   s.BytesSent - other.BytesSent,
		MsgsRecv:    s.MsgsRecv - other.MsgsRecv,
		BytesRecv:   s.BytesRecv - other.BytesRecv,
	}
}

// Proc is one logical processor of the simulated machine. It is owned by a
// single goroutine; methods must not be called concurrently.
type Proc struct {
	rank  int
	size  int
	tr    Transport
	m     *costmodel.Machine
	clock float64
	stats Stats
	// arena recycles payload buffers for the pooled send paths (SendF64Buf
	// and friends). Buffers flow out through send and come back through
	// Message.Release — from the TCP writer once the payload is copied to
	// the socket, or from the receiving rank's typed receive once the
	// payload is decoded (the in-memory transport aliases payloads, so only
	// the receiver knows when the bytes are dead). Proc itself is
	// single-goroutine; the arena carries the lock because releases arrive
	// from other goroutines.
	arena byteArena

	// Measured-mode state, set by RunMeasured. wall is nil on modeled runs,
	// which keeps every measured branch a single pointer test on the hot
	// path. slot is non-nil only when ranks are multiplexed onto fewer
	// worker slots than ranks; blocking receives yield it (see slotSched).
	wall Clock
	slot *rankSlot
	meas Measured
	// lastSample/sampleValid amortize wall-clock reads across consecutive
	// receives: the end reading of one receive serves as the start reading
	// of the next unless compute or a send ran in between.
	lastSample  float64
	sampleValid bool
}

// NewProc constructs a processor endpoint. Most code should use Run instead.
func NewProc(rank, size int, tr Transport, m *costmodel.Machine) *Proc {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, size))
	}
	return &Proc{rank: rank, size: size, tr: tr, m: m}
}

// Rank returns this processor's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processors.
func (p *Proc) Size() int { return p.size }

// Machine returns the cost model in effect.
func (p *Proc) Machine() *costmodel.Machine { return p.m }

// Clock returns the current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the accumulated statistics.
func (p *Proc) Stats() Stats { return p.stats }

// RestoreClock fast-forwards the virtual clock to c (it must not move
// backwards) without charging the jump to compute or communication time.
// Checkpoint restore uses this so a resumed run continues the saved run's
// virtual timeline.
func (p *Proc) RestoreClock(c float64) {
	if c < p.clock {
		panic(fmt.Sprintf("comm: RestoreClock to %g would move clock backwards from %g", c, p.clock))
	}
	p.clock = c
}

// MeasuredMode reports whether the run records wall-clock measurements
// (true only under RunMeasured).
func (p *Proc) MeasuredMode() bool { return p.wall != nil }

// Measured returns a copy of the rank's wall-clock accounting so far (the
// Phases map is shared). Zero-valued on modeled runs.
func (p *Proc) Measured() Measured { return p.meas }

// sampleWall takes a fresh (counted) wall-clock reading. Callers must have
// checked p.wall != nil.
func (p *Proc) sampleWall() float64 {
	p.meas.ClockSamples++
	return p.wall.Now()
}

// WallNow returns real seconds since the run epoch, or 0 on modeled runs.
// Interval timers (core.PhaseTimer) use it together with ChargePhaseWall.
func (p *Proc) WallNow() float64 {
	if p.wall == nil {
		return 0
	}
	return p.sampleWall()
}

// ChargePhaseWall adds dt measured seconds to the named phase region. It is
// a no-op on modeled runs, so instrumentation can run unconditionally.
func (p *Proc) ChargePhaseWall(name string, dt float64) {
	if p.wall == nil || dt == 0 {
		return
	}
	if p.meas.Phases == nil {
		p.meas.Phases = make(map[string]float64)
	}
	p.meas.Phases[name] += dt
}

// Compute advances the virtual clock by cost seconds of application work.
func (p *Proc) Compute(cost float64) {
	if cost < 0 {
		panic("comm: negative compute cost")
	}
	p.clock += cost
	p.stats.ComputeTime += cost
	// Real work happened: the cached receive-path wall sample is stale.
	p.sampleValid = false
}

// ComputeFlops accounts n floating-point operations.
func (p *Proc) ComputeFlops(n int) { p.Compute(p.m.FlopCost(n)) }

// ComputeMem accounts n irregular memory operations (hash probes, table
// lookups, indirection dereferences).
func (p *Proc) ComputeMem(n int) { p.Compute(p.m.MemCost(n)) }

// Send transmits data to rank `to` with the given tag. The sender is busy
// for the per-message overhead Alpha; the message arrives at the receiver at
// departure + Alpha + Beta*len(data).
//
// Ownership: data passes to the receiver. The in-memory transport delivers
// raw payloads by reference, so the receiver aliases the very bytes handed
// in here, possibly long after Send returned (nothing synchronizes the two
// ranks until the receiver's matching Recv). A sender must therefore never
// write to, or recycle, a buffer it has sent — allocate a fresh one per
// message. Payloads that should be reused go through the arena-staged
// SendF64Buf/SendI32Buf/SendI64Buf, which copy out of the caller's slice.
func (p *Proc) Send(to, tag int, data []byte) { p.send(to, tag, data, nil) }

// send is the shared transmit path. pool is non-nil only for arena-staged
// payloads (SendF64Buf and friends); the virtual-time accounting is
// identical either way, so pooled sends are invisible to the cost model.
func (p *Proc) send(to, tag int, data []byte, pool *byteArena) {
	p.checkPeer("send to", to)
	if to == p.rank {
		panic("comm: send to self (use local copy instead)")
	}
	depart := p.clock
	p.clock += p.m.Alpha
	p.stats.CommTime += p.m.Alpha
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(len(data))
	p.sampleValid = false // encode/copy time must not count as receive wait
	p.tr.Send(Message{
		From:   p.rank,
		To:     to,
		Tag:    tag,
		Arrive: depart + p.m.MsgCost(len(data)),
		Data:   data,
		pool:   pool,
	})
}

// checkPeer refuses a peer rank outside [0, Size) before any transport sees
// it: the in-memory transport would otherwise index another rank's mailbox,
// and TCP would die on a raw index error.
func (p *Proc) checkPeer(op string, r int) {
	if r < 0 || r >= p.size {
		panic(fmt.Sprintf("comm: %s bad rank %d (n=%d)", op, r, p.size))
	}
}

// recvMsg blocks until a message from `from` with the given tag is
// available. Waiting time (virtual) is accounted as communication time; in
// measured mode the real blocking window is additionally charged to
// Measured.CommWall with amortized clock sampling (consecutive receives
// share one reading), and a multiplexed rank yields its worker slot for
// the duration of the wait so runnable peers can use it.
func (p *Proc) recvMsg(from, tag int) Message {
	p.checkPeer("recv from", from)
	if from == p.rank {
		panic("comm: recv from self")
	}
	var t0 float64
	if p.wall != nil {
		if p.sampleValid {
			t0 = p.lastSample
		} else {
			t0 = p.sampleWall()
		}
		if p.slot != nil {
			p.slot.release()
		}
	}
	m := p.tr.Recv(p.rank, from, tag)
	if p.wall != nil {
		if p.slot != nil {
			p.slot.acquire()
		}
		t1 := p.sampleWall()
		p.meas.CommWall += t1 - t0
		p.lastSample, p.sampleValid = t1, true
	}
	if m.Arrive > p.clock {
		p.stats.CommTime += m.Arrive - p.clock
		p.clock = m.Arrive
	}
	p.stats.MsgsRecv++
	p.stats.BytesRecv += int64(len(m.Data))
	return m
}

// Recv blocks until a message from `from` with the given tag is available
// and returns its payload. The caller owns the returned bytes; payloads
// that were staged through a send arena are not reclaimed on this path.
func (p *Proc) Recv(from, tag int) []byte {
	return p.recvMsg(from, tag).Data
}

// SendF64 sends a []float64 payload.
func (p *Proc) SendF64(to, tag int, xs []float64) { p.Send(to, tag, EncodeF64(xs)) }

// SendF64Buf sends a []float64 payload staged through the per-Proc buffer
// arena: the values are encoded into a recycled byte buffer, so xs may be
// reused (or mutated) as soon as the call returns and the send itself does
// not allocate in steady state. The modeled cost is identical to SendF64.
func (p *Proc) SendF64Buf(to, tag int, xs []float64) {
	b := AppendF64(p.arena.get(8*len(xs)), xs)
	p.send(to, tag, b, &p.arena)
}

// RecvF64 receives a []float64 payload.
func (p *Proc) RecvF64(from, tag int) []float64 { return p.RecvF64Into(from, tag, nil) }

// RecvF64Into receives a []float64 payload, decoding into dst's backing
// array (reallocating only if it is too small) and returning the decoded
// slice. If the payload was staged through a send arena it is reclaimed
// here, completing the pooled round trip.
func (p *Proc) RecvF64Into(from, tag int, dst []float64) []float64 {
	m := p.recvMsg(from, tag)
	dst = DecodeF64Into(dst, m.Data)
	m.Release()
	return dst
}

// SendI32 sends a []int32 payload.
func (p *Proc) SendI32(to, tag int, xs []int32) { p.Send(to, tag, EncodeI32(xs)) }

// SendI32Buf is SendF64Buf for []int32 payloads.
func (p *Proc) SendI32Buf(to, tag int, xs []int32) {
	b := AppendI32(p.arena.get(4*len(xs)), xs)
	p.send(to, tag, b, &p.arena)
}

// RecvI32 receives a []int32 payload.
func (p *Proc) RecvI32(from, tag int) []int32 { return p.RecvI32Into(from, tag, nil) }

// RecvI32Into is RecvF64Into for []int32 payloads.
func (p *Proc) RecvI32Into(from, tag int, dst []int32) []int32 {
	m := p.recvMsg(from, tag)
	dst = DecodeI32Into(dst, m.Data)
	m.Release()
	return dst
}

// SendI64 sends a []int64 payload.
func (p *Proc) SendI64(to, tag int, xs []int64) { p.Send(to, tag, EncodeI64(xs)) }

// SendI64Buf is SendF64Buf for []int64 payloads.
func (p *Proc) SendI64Buf(to, tag int, xs []int64) {
	b := AppendI64(p.arena.get(8*len(xs)), xs)
	p.send(to, tag, b, &p.arena)
}

// RecvI64 receives a []int64 payload.
func (p *Proc) RecvI64(from, tag int) []int64 { return p.RecvI64Into(from, tag, nil) }

// RecvI64Into is RecvF64Into for []int64 payloads.
func (p *Proc) RecvI64Into(from, tag int, dst []int64) []int64 {
	m := p.recvMsg(from, tag)
	dst = DecodeI64Into(dst, m.Data)
	m.Release()
	return dst
}
