package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// TCPTransport connects n ranks through a full mesh of loopback TCP
// connections, exercising the same wire paths a cluster deployment over RPC
// would. Each ordered pair (from, to) with from != to gets one connection;
// a background reader per connection feeds the same tag-matching mailboxes
// the in-memory transport uses.
//
// Frame format (little-endian): from int32, tag int32, arrive float64,
// len int32, payload bytes.
type TCPTransport struct {
	n     int
	rank  int
	boxes []*mailbox
	conns []net.Conn // conns[to] on the sender side
	// sendBufs[to] stages one whole frame (header + payload) per send, so a
	// message reaches the socket in a single Write and a failed write can be
	// retried from the frame start. Reused across sends, guarded by wmu.
	sendBufs [][]byte
	wmu      []sync.Mutex
	closed   sync.Once
	wg       sync.WaitGroup
	// recvArena recycles incoming payload buffers: the reader goroutine
	// draws from it and the typed receive paths return buffers after
	// decoding (payloads retained via raw Recv are simply never reclaimed).
	recvArena byteArena
}

// Send-side retry policy: a failed frame write is retried with exponential
// backoff as long as no byte of the frame reached the socket; once the
// budget is exhausted (or the frame is torn mid-write) the link is declared
// dead: the peer's inbound mailbox is poisoned so later Recvs from it fail
// fast, and the sender panics PeerFailure instead of a raw I/O panic, so a
// dead peer degrades into the same failure path a crashed rank takes.
const (
	sendRetryBudget  = 3
	sendRetryBackoff = time.Millisecond
)

// attach registers conn as the link to peer and starts its reader.
func (t *TCPTransport) attach(peer int, conn net.Conn) {
	t.conns[peer] = conn
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// When the connection drops (peer process crashed or closed), poison
		// the peer's mailbox so a rank blocked in Recv panics PeerFailure
		// instead of hanging. Messages the peer sent before dying were
		// enqueued by this same goroutine first, so none are lost.
		defer t.boxes[peer].poison()
		r := bufio.NewReader(conn)
		for {
			var hdr [20]byte
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return // connection closed
			}
			from := int(binary.LittleEndian.Uint32(hdr[0:]))
			tag := int(binary.LittleEndian.Uint32(hdr[4:]))
			arrive := math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:]))
			n := int(binary.LittleEndian.Uint32(hdr[16:]))
			var data []byte
			var pool *byteArena
			if n > 0 {
				pool = &t.recvArena
				data = pool.get(n)[:n]
				if _, err := io.ReadFull(r, data); err != nil {
					return
				}
			}
			t.boxes[from].put(Message{From: from, To: t.rank, Tag: tag, Arrive: arrive, Data: data, pool: pool})
		}
	}()
}

// Send implements Transport.
func (t *TCPTransport) Send(m Message) {
	if m.To == t.rank {
		t.boxes[m.From].put(m)
		return
	}
	t.wmu[m.To].Lock()
	defer t.wmu[m.To].Unlock()
	// Stage the whole frame so it reaches the socket in one Write.
	buf := t.sendBufs[m.To][:0]
	if cap(buf) < 20+len(m.Data) {
		buf = make([]byte, 0, roundUp(20+len(m.Data)))
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.From))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Tag))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(m.Arrive))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(m.Data)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, m.Data...)
	t.sendBufs[m.To] = buf
	// The payload is fully copied into the frame, so a pooled staging buffer
	// is reusable by the sender as soon as Send returns.
	m.Release()

	conn := t.conns[m.To]
	written := 0
	for attempt := 0; ; attempt++ {
		n, err := conn.Write(buf[written:])
		written += n
		if err == nil {
			return
		}
		// A torn frame (some bytes on the wire) cannot be retried without
		// corrupting the stream; a frame that never started can, within the
		// retry budget.
		if written > 0 || attempt >= sendRetryBudget {
			t.boxes[m.To].poison()
			panic(PeerFailure{})
		}
		time.Sleep(sendRetryBackoff << attempt)
	}
}

// Recv implements Transport.
func (t *TCPTransport) Recv(self, from, tag int) Message {
	if self != t.rank {
		panic(fmt.Sprintf("comm: tcp endpoint for rank %d used as rank %d", t.rank, self))
	}
	// Never spin: the reader goroutines that put into boxes need a core to
	// drain the socket, and a spinning receiver takes it.
	return t.boxes[from].take(tag, 0)
}

// Poison implements Poisoner.
func (t *TCPTransport) Poison() {
	for _, mb := range t.boxes {
		mb.poison()
	}
}

// PoisonLink implements LinkPoisoner. A TCP endpoint only holds the
// mailboxes of its own rank, so poisoning a link whose receiving side lives
// in another process is a no-op here (that side is woken by its connection
// dropping instead).
func (t *TCPTransport) PoisonLink(to, from int) {
	if to != t.rank || from < 0 || from >= t.n {
		return
	}
	t.boxes[from].poison()
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.closed.Do(func() {
		for _, c := range t.conns {
			if c != nil {
				c.Close()
			}
		}
	})
	return nil
}

// tcpMesh adapts a slice of per-rank endpoints to the single-Transport
// interface RunTransport expects.
type tcpMesh struct{ eps []*TCPTransport }

// meshTimeout bounds NewTCPMesh's wiring: every listener is bound before any
// rank dials, so only a failing rank makes its peers wait this long.
const meshTimeout = 10 * time.Second

// NewTCPMesh builds a Transport over loopback TCP suitable for RunTransport:
// it binds n loopback listeners and brings every rank up concurrently
// through NewTCPEndpointOn, the wiring a multi-process deployment uses.
// Closing the mesh closes every endpoint.
func NewTCPMesh(n int) (Transport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: tcp mesh needs n > 0, got %d", n)
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("comm: tcp listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	eps := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[r], errs[r] = NewTCPEndpointOn(lns[r], r, addrs, meshTimeout)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				_ = ep.Close() // best-effort teardown; the setup error is what matters
			}
		}
		return nil, err
	}
	return &tcpMesh{eps: eps}, nil
}

// Send implements Transport.
func (m *tcpMesh) Send(msg Message) { m.eps[msg.From].Send(msg) }

// Recv implements Transport.
func (m *tcpMesh) Recv(self, from, tag int) Message { return m.eps[self].Recv(self, from, tag) }

// Poison implements Poisoner.
func (m *tcpMesh) Poison() {
	for _, ep := range m.eps {
		ep.Poison()
	}
}

// PoisonLink implements LinkPoisoner.
func (m *tcpMesh) PoisonLink(to, from int) {
	if to < 0 || to >= len(m.eps) {
		return
	}
	m.eps[to].PoisonLink(to, from)
}

// Close implements Transport. It closes every endpoint and returns the
// first teardown error.
func (m *tcpMesh) Close() error {
	var first error
	for _, ep := range m.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewTCPEndpoint establishes this process's transport endpoint for a
// multi-process deployment: rank r of n, where addrs[i] is the listen
// address of rank i. The endpoint listens on addrs[rank], accepts
// connections from all lower ranks, and dials all higher ranks (retrying
// while peers start up). It returns once the full mesh is connected.
// Each process calls this exactly once with its own rank (NewTCPMesh wires
// all ranks inside one process the same way).
func NewTCPEndpoint(rank int, addrs []string, timeout time.Duration) (*TCPTransport, error) {
	n := len(addrs)
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", rank, n)
	}
	if n == 1 {
		return NewTCPEndpointOn(nil, rank, addrs, timeout)
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen on %s: %w", rank, addrs[rank], err)
	}
	return NewTCPEndpointOn(ln, rank, addrs, timeout)
}

// NewTCPEndpointOn is NewTCPEndpoint over a listener the caller has already
// bound. It exists for supervisors (the chaosd worker pool) that must
// reserve ports first, report the resulting addresses to a coordinator, and
// only then — once the coordinator has assembled the full address list —
// bring the rank up on the reserved port, without a close-and-rebind race.
// The endpoint takes ownership of ln and closes it once the mesh is
// connected (ln may be nil when n == 1, where no wiring happens at all).
func NewTCPEndpointOn(ln net.Listener, rank int, addrs []string, timeout time.Duration) (*TCPTransport, error) {
	n := len(addrs)
	if rank < 0 || rank >= n {
		if ln != nil {
			ln.Close()
		}
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", rank, n)
	}
	t := &TCPTransport{
		n:        n,
		rank:     rank,
		boxes:    make([]*mailbox, n),
		conns:    make([]net.Conn, n),
		sendBufs: make([][]byte, n),
		wmu:      make([]sync.Mutex, n),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	if n == 1 {
		if ln != nil {
			ln.Close()
		}
		return t, nil
	}
	if ln == nil {
		return nil, fmt.Errorf("comm: rank %d of %d needs a bound listener", rank, n)
	}
	defer ln.Close()

	deadline := time.Now().Add(timeout)
	errs := make(chan error, 2)

	// Accept connections from the `rank` lower-ranked peers.
	go func() {
		for k := 0; k < rank; k++ {
			if d, ok := ln.(*net.TCPListener); ok {
				d.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("comm: rank %d accept: %w", rank, err)
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				errs <- fmt.Errorf("comm: rank %d handshake read: %w", rank, err)
				return
			}
			from := int(binary.LittleEndian.Uint32(hdr[:]))
			if from < 0 || from >= rank {
				errs <- fmt.Errorf("comm: rank %d got handshake from unexpected rank %d", rank, from)
				return
			}
			t.attach(from, conn)
		}
		errs <- nil
	}()

	// Dial the higher-ranked peers, retrying with exponential backoff while
	// they start up. Refused connections fail fast, so a fixed short sleep
	// would hammer the target port for the whole startup window; doubling
	// the pause (capped, and clamped to the remaining deadline) keeps early
	// retries snappy without busy-dialling a peer that is slow to appear.
	go func() {
		const (
			dialBackoffMin = 2 * time.Millisecond
			dialBackoffMax = 250 * time.Millisecond
		)
		for j := rank + 1; j < n; j++ {
			var conn net.Conn
			var err error
			backoff := dialBackoffMin
			for {
				conn, err = net.DialTimeout("tcp", addrs[j], time.Second)
				if err == nil {
					break
				}
				remaining := time.Until(deadline)
				if remaining <= 0 {
					errs <- fmt.Errorf("comm: rank %d dial rank %d at %s: %w", rank, j, addrs[j], err)
					return
				}
				sleep := backoff
				if sleep > remaining {
					sleep = remaining
				}
				time.Sleep(sleep)
				if backoff *= 2; backoff > dialBackoffMax {
					backoff = dialBackoffMax
				}
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(rank))
			if _, err := conn.Write(hdr[:]); err != nil {
				errs <- fmt.Errorf("comm: rank %d handshake to %d: %w", rank, j, err)
				return
			}
			t.attach(j, conn)
		}
		errs <- nil
	}()

	for k := 0; k < 2; k++ {
		if err := <-errs; err != nil {
			_ = t.Close() // best-effort teardown; the setup error is what matters
			return nil, err
		}
	}
	return t, nil
}
