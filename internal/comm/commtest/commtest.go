// Package commtest runs SPMD test bodies over each kind of transport the
// runtime supports, and under each measured-mode runner, under a watchdog.
// It supplies the columns of the table-driven oracles that hold the
// executors to their sequential loops (internal/loopir's TestExecutorOracle,
// internal/schedule's TestMotionOracle) and the workloads to their
// references (internal/workload): a row that deadlocks fails naming every
// rank's pending receive instead of hanging until the go test timeout.
package commtest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// Transport is one column of an oracle: how the ranks are wired.
type Transport int

const (
	// Mem is the in-memory mesh.
	Mem Transport = iota
	// Fault is the in-memory mesh under FaultPlan.
	Fault
	// Delay is the in-memory mesh with Latency of real wire time per frame
	// (comm.DelayTransport): split-phase executors really compute while
	// frames are in flight, and Outcome.InFlight counts the receives that
	// had to wait for the wire.
	Delay
	// TCP is a loopback socket mesh; -short skips it (Skip).
	TCP
	// FaultTCP is the loopback socket mesh under FaultPlan; -short skips it.
	FaultTCP
	// Measured runs the ranks under comm.RunMeasuredTransport over a bare
	// in-memory mesh, the path a timed benchmark run takes: while the ranks
	// fit GOMAXPROCS each is pinned to a thread bound to a CPU of its own and
	// a receive waits spin, then yield, then park. A decorated mesh parks at
	// once, so the watchdog cannot log this column's pending receives.
	Measured
	// Multiplexed is Measured with every rank on one worker slot.
	Multiplexed
)

// Transports lists every transport column.
var Transports = []Transport{Mem, Fault, Delay, TCP, FaultTCP}

// Runners lists the measured-mode columns, which Transports leaves out.
var Runners = []Transport{Measured, Multiplexed}

func (k Transport) String() string {
	return [...]string{"mem", "fault", "delay", "tcp", "fault-tcp", "measured", "multiplexed"}[k]
}

// FaultPlan duplicates and reorders aggressively — about a third of the
// frames each — and drops (with retries) and delays some. Its decisions are
// pure functions of per-link sequence numbers, so two programs that send the
// same frames see the same faults and the same virtual clocks: if a mode
// reordered or renumbered a single frame, its clocks would diverge from
// blocking. Duplicates and reorders leave virtual time alone, so a
// divergence they cause is a delivery bug.
var FaultPlan = fault.Plan{Seed: 9, Link: fault.LinkFaults{
	DropProb: 0.03, RetryDelay: 2e-5,
	DupProb: 0.3, ReorderProb: 0.35,
	DelayProb: 0.1, MaxDelay: 1e-5,
}}

// Latency is the Delay column's real wire time per frame: every frame
// reaches its receiver through a courier goroutine after a real sleep, so
// receives complete asynchronously to the sender, yet a script of a few
// hundred frames stays a few milliseconds long.
const Latency = 5 * time.Microsecond

// Deadline bounds one run: past it the runner poisons the transport.
const Deadline = 2 * time.Minute

// New returns a fresh transport of kind k connecting n ranks; on the fault
// columns, kills join FaultPlan.
func (k Transport) New(n int, kills ...fault.KillSpec) (comm.Transport, error) {
	switch k {
	case Fault, FaultTCP:
		var inner comm.Transport = comm.NewMemTransport(n)
		if k == FaultTCP {
			mesh, err := comm.NewTCPMesh(n)
			if err != nil {
				return nil, err
			}
			inner = mesh
		}
		plan := FaultPlan
		plan.Kills = kills
		return fault.Wrap(inner, n, &plan), nil
	case Delay:
		return comm.NewDelayTransport(comm.NewMemTransport(n), Latency), nil
	case TCP:
		return comm.NewTCPMesh(n)
	default:
		return comm.NewMemTransport(n), nil
	}
}

// Skip skips t on a column that -short leaves out (see Skipped).
func Skip(t testing.TB, k Transport) {
	t.Helper()
	if Skipped(k) {
		t.Skip("real sockets in -short mode")
	}
}

// Skipped reports whether -short leaves column k out: the real sockets.
func Skipped(k Transport) bool { return (k == TCP || k == FaultTCP) && testing.Short() }

// Outcome is a finished run: the runner's report and, on the Delay column,
// how many receives of each tag began while their frame was still on the
// wire — each of them waited for the wire.
type Outcome struct {
	*comm.Report
	InFlight map[int]int
}

// Try runs body on n ranks of machine m over a new transport of kind k
// (measured, on a runner column). It returns an error rather than failing a
// test, so that several tests can share one run: the transport could not be
// built, or the run was still going after Deadline (the error names every
// rank's pending receive). Callers skip the socket columns under -short
// (Skip). kills hard-kill ranks on a fault column (New).
func Try(k Transport, n int, m *costmodel.Machine, body func(*comm.Proc), kills ...fault.KillSpec) (Outcome, error) {
	tr, err := k.New(n, kills...)
	if err != nil {
		return Outcome{}, fmt.Errorf("%v transport: %w", k, err)
	}
	var latency time.Duration
	if k == Delay {
		latency = Latency
	}
	var opts *comm.MeasureOpts
	switch k {
	case Measured:
		opts = &comm.MeasureOpts{}
	case Multiplexed:
		opts = &comm.MeasureOpts{Workers: 1}
	}
	return run(Deadline, tr, latency, opts, n, m, body)
}

// run is Try with the deadline, the wire latency (0: not counted) and the
// measured-mode options (nil: a modeled run) as parameters: a hung run
// returns an error listing the pending receives rather than the
// peer-failure panic the poisoning raises.
func run(deadline time.Duration, tr comm.Transport, latency time.Duration, opts *comm.MeasureOpts, n int, m *costmodel.Machine, body func(*comm.Proc)) (out Outcome, err error) {
	w := &watched{Transport: tr, pending: make([]recvKey, n), latency: latency, bare: opts != nil}
	for r := range w.pending {
		w.pending[r].from = -1
	}
	if latency > 0 {
		w.sent, w.inFlight = map[[3]int][]time.Time{}, map[int]int{}
	}
	timer := time.AfterFunc(deadline, w.expire)
	defer timer.Stop()
	defer func() {
		if e := recover(); e != nil {
			if hung := w.hung(); hung != "" {
				out, err = Outcome{}, fmt.Errorf("no progress within %v; pending receives: %s", deadline, hung)
				return
			}
			panic(e)
		}
	}()
	if w.bare {
		return Outcome{Report: comm.RunMeasuredTransport(n, m, tr, *opts, body)}, nil
	}
	return Outcome{comm.RunTransport(n, m, w, body), w.inFlight}, nil
}

// Memo holds deterministic runs by key, so a matrix and the named tests
// that slice it share each run: the first caller of a key runs it, later
// ones wait for its result.
type Memo[K comparable, V any] struct{ m sync.Map }

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Get returns the result of run for k, running it on first use.
func (c *Memo[K, V]) Get(k K, run func() (V, error)) (V, error) {
	e, _ := c.m.LoadOrStore(k, new(memoEntry[V]))
	me := e.(*memoEntry[V])
	me.once.Do(func() { me.v, me.err = run() })
	return me.v, me.err
}

// recvKey is the (from, tag) a rank's receive waits on; from < 0 when idle.
type recvKey struct{ from, tag int }

// watched decorates a transport with each rank's pending receive, forwarding
// the poisoning and rank-completion hooks the runners use; on a bare run it
// only poisons the transport it does not decorate. With a latency
// it also stamps every frame's send time per (from, to, tag), which the
// wire keeps in FIFO order, to count the receives begun before their frame
// could have arrived.
type watched struct {
	comm.Transport
	mu       sync.Mutex
	pending  []recvKey
	report   string // set by expire
	bare     bool
	latency  time.Duration
	sent     map[[3]int][]time.Time
	inFlight map[int]int
}

func (w *watched) Send(m comm.Message) {
	if w.sent != nil {
		k := [3]int{m.From, m.To, m.Tag}
		w.mu.Lock()
		w.sent[k] = append(w.sent[k], time.Now()) // chaosvet:ignore determinism — times the real wire, not the program
		w.mu.Unlock()
	}
	w.Transport.Send(m)
}

func (w *watched) Recv(self, from, tag int) comm.Message {
	w.set(self, recvKey{from, tag})
	defer w.set(self, recvKey{from: -1})
	var begun time.Time
	if w.sent != nil {
		begun = time.Now() // chaosvet:ignore determinism — times the real wire, not the program
	}
	m := w.Transport.Recv(self, from, tag)
	if w.sent != nil {
		k := [3]int{from, self, tag}
		w.mu.Lock()
		if q := w.sent[k]; len(q) > 0 {
			if begun.Sub(q[0]) < w.latency {
				w.inFlight[tag]++
			}
			w.sent[k] = q[1:]
		}
		w.mu.Unlock()
	}
	return m
}

func (w *watched) set(rank int, k recvKey) {
	w.mu.Lock()
	w.pending[rank] = k
	w.mu.Unlock()
}

// expire records every rank's pending receive, then wakes the blocked ranks.
func (w *watched) expire() {
	w.mu.Lock()
	var b strings.Builder
	for r, k := range w.pending {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		if k.from < 0 {
			fmt.Fprintf(&b, "rank %d none", r)
		} else {
			fmt.Fprintf(&b, "rank %d (from %d, tag %d)", r, k.from, k.tag)
		}
	}
	w.report = b.String()
	if w.bare {
		w.report = "not logged on a bare mesh"
	}
	w.mu.Unlock()
	w.Poison()
}

func (w *watched) hung() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.report
}

// Poison implements comm.Poisoner when the inner transport does.
func (w *watched) Poison() {
	if po, ok := w.Transport.(comm.Poisoner); ok {
		po.Poison()
	}
}

// RankDone implements comm.RankObserver when the inner transport does.
func (w *watched) RankDone(rank int) {
	if ro, ok := w.Transport.(comm.RankObserver); ok {
		ro.RankDone(rank)
	}
}
