package comm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
)

// Report summarizes one SPMD run: per-rank final virtual clocks,
// statistics and phase ledgers, plus the real wall time the simulation
// took. Measured runs (RunMeasured) additionally carry per-rank wall-clock
// accounting.
type Report struct {
	N      int
	Clocks []float64
	Stats  []Stats
	// Phases holds each rank's virtual time per phase and Spans its phase
	// intervals in order, as Proc.Mark charged them (nil for a rank that
	// marked none).
	Phases []map[string]float64
	Spans  [][]Span
	Wall   time.Duration
	// Measured holds per-rank wall-clock accounting when the run was
	// executed by RunMeasured; nil for modeled runs.
	Measured []Measured
	// Workers is the number of worker slots measured ranks were multiplexed
	// onto (0 for modeled runs).
	Workers int
}

// MaxClock returns the maximum final virtual clock, i.e. the modeled
// parallel execution time.
func (r *Report) MaxClock() float64 {
	max := 0.0
	for _, c := range r.Clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// MeanComputeTime returns compute time averaged over ranks.
func (r *Report) MeanComputeTime() float64 {
	s := 0.0
	for _, st := range r.Stats {
		s += st.ComputeTime
	}
	return s / float64(r.N)
}

// MeanCommTime returns communication time averaged over ranks.
func (r *Report) MeanCommTime() float64 {
	s := 0.0
	for _, st := range r.Stats {
		s += st.commTime
	}
	return s / float64(r.N)
}

// LoadBalance returns the paper's load-balance index:
// max_i(compute_i) * n / sum_i(compute_i). 1.0 is perfect balance.
func (r *Report) LoadBalance() float64 {
	max, sum := 0.0, 0.0
	for _, st := range r.Stats {
		if st.ComputeTime > max {
			max = st.ComputeTime
		}
		sum += st.ComputeTime
	}
	if sum == 0 {
		return 1
	}
	return max * float64(r.N) / sum
}

// TotalBytesSent sums bytes sent across ranks (communication volume).
func (r *Report) TotalBytesSent() int64 {
	var s int64
	for _, st := range r.Stats {
		s += st.BytesSent
	}
	return s
}

// TotalMsgsSent sums messages sent across ranks.
func (r *Report) TotalMsgsSent() int64 {
	var s int64
	for _, st := range r.Stats {
		s += st.MsgsSent
	}
	return s
}

// MaxMeasuredWall returns the longest per-rank measured body duration in
// real seconds — the measured analogue of MaxClock. 0 for modeled runs.
func (r *Report) MaxMeasuredWall() float64 {
	max := 0.0
	for _, m := range r.Measured {
		if m.Wall > max {
			max = m.Wall
		}
	}
	return max
}

// MeanMeasuredCommWall returns measured receive-wait time averaged over
// ranks, in real seconds. 0 for modeled runs.
func (r *Report) MeanMeasuredCommWall() float64 {
	if len(r.Measured) == 0 {
		return 0
	}
	s := 0.0
	for _, m := range r.Measured {
		s += m.CommWall
	}
	return s / float64(len(r.Measured))
}

// PhaseMax returns the maximum over ranks of the named virtual phase, 0 for
// a phase no rank marked.
func (r *Report) PhaseMax(name string) float64 {
	max := 0.0
	for _, ph := range r.Phases {
		if v := ph[name]; v > max {
			max = v
		}
	}
	return max
}

// MeasuredPhaseMax returns the maximum over ranks of the named measured
// phase region, in real seconds. 0 for modeled runs or unknown phases.
func (r *Report) MeasuredPhaseMax(name string) float64 {
	max := 0.0
	for _, m := range r.Measured {
		if v := m.Phases[name]; v > max {
			max = v
		}
	}
	return max
}

// Run executes body on n simulated processors over the in-memory transport
// and returns the per-rank report. A panic on any rank is re-raised on the
// caller with the rank attached.
func Run(n int, m *costmodel.Machine, body func(p *Proc)) *Report {
	return RunTransport(n, m, NewMemTransport(n), body)
}

// RunTransport is Run over a caller-supplied transport (e.g. TCP). The
// transport is closed before returning.
func RunTransport(n int, m *costmodel.Machine, tr Transport, body func(p *Proc)) *Report {
	return runSPMD(n, m, tr, nil, body)
}

// MeasureOpts configures RunMeasuredTransport.
type MeasureOpts struct {
	// Workers bounds how many ranks execute simultaneously; 0 means
	// min(n, GOMAXPROCS).
	Workers int
	// Clock overrides the wall clock (tests substitute a scripted clock for
	// deterministic assertions). Nil means a fresh WallClock.
	Clock Clock
}

// RunMeasured is Run in measured wall-clock mode: virtual-time accounting
// is unchanged (Clocks and Stats are bit-identical to Run), but every rank
// additionally records real phase timers, receive waits, and its total
// measured duration (Report.Measured). The n virtual ranks execute on a
// GOMAXPROCS-aware worker pool: with n <= GOMAXPROCS each rank is pinned —
// locked to its own OS thread and, when the process may run on at least n
// CPUs, that thread bound to the rank-th of them for the length of the run
// (Linux only; the previous mask is restored on exit). Otherwise ranks are
// multiplexed onto min(n, GOMAXPROCS) worker slots by a barrier-aware
// scheduler (comm waits yield the slot).
func RunMeasured(n int, m *costmodel.Machine, body func(p *Proc)) *Report {
	return RunMeasuredTransport(n, m, NewMemTransport(n), MeasureOpts{}, body)
}

// RunMeasuredTransport is RunMeasured over a caller-supplied transport and
// options. The transport is closed before returning.
func RunMeasuredTransport(n int, m *costmodel.Machine, tr Transport, o MeasureOpts, body func(p *Proc)) *Report {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	clock := o.Clock
	if clock == nil {
		clock = &wallClock{epoch: time.Now()}
	}
	mc := &measureCfg{clock: clock, workers: workers}
	if workers < n {
		mc.sched = newSlotSched(workers)
	}
	return runSPMD(n, m, tr, mc, body)
}

// measureCfg is the measured-mode configuration threaded through runSPMD:
// nil means a modeled run (the exact historical Run behaviour).
type measureCfg struct {
	clock   Clock
	workers int
	// sched is non-nil only when ranks outnumber workers and must be
	// multiplexed; with a dedicated worker per rank no gating is needed.
	sched *slotSched
}

// runSPMD is the shared SPMD harness behind Run, RunTransport and
// RunMeasured: it spawns one goroutine per rank, collects clocks and
// statistics, poisons the transport when a rank fails so peers blocked in
// Recv do not deadlock, and re-raises failures on the caller.
func runSPMD(n int, m *costmodel.Machine, tr Transport, mc *measureCfg, body func(p *Proc)) *Report {
	if n <= 0 {
		panic("comm: Run needs at least one processor")
	}
	defer tr.Close()
	rep := &Report{N: n, Clocks: make([]float64, n), Stats: make([]Stats, n),
		Phases: make([]map[string]float64, n), Spans: make([][]Span, n)}
	if mc != nil {
		rep.Measured = make([]Measured, n)
		rep.Workers = mc.workers
	}
	// One dedicated worker per rank: each is locked to an OS thread so the
	// measured numbers are not polluted by rank migration. Over a bare
	// in-memory transport each thread is also bound to a CPU of its own
	// (while the process has enough), and a receiver spins, then
	// yield-polls, before it pays a futex round trip per message.
	// Everywhere else receivers park at once.
	pinned := mc != nil && mc.sched == nil
	mt, bare := tr.(*MemTransport)
	bind := pinned && bare && n <= len(allowedCPUs)
	if bare {
		if pinned {
			mt.setWait(memSpin, memYield)
		} else {
			mt.setWait(0, 0)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	panics := make([]any, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if pinned {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			if bind {
				defer bindThread(rank)()
			}
			p := newProc(rank, n, tr, m)
			var slot *rankSlot
			if mc != nil {
				p.wall = mc.clock
				if mc.sched != nil {
					slot = &rankSlot{s: mc.sched}
					p.slot = slot
				}
			}
			defer func() {
				e := recover()
				// A rank that panicked while holding its worker slot must
				// give it back or surviving ranks starve (release is a no-op
				// when the slot was already yielded inside a receive).
				if slot != nil {
					slot.release()
				}
				rep.Clocks[rank] = p.clock
				rep.Stats[rank] = p.stats
				rep.Phases[rank], rep.Spans[rank] = p.phases, p.spans
				if mc != nil {
					rep.Measured[rank] = p.meas
					if bare {
						rep.Measured[rank].Waits = mt.waits(rank)
					}
				}
				if e != nil {
					panics[rank] = e
					// Unblock peers waiting on messages from this rank so a
					// single failure does not deadlock the whole run.
					if po, ok := tr.(Poisoner); ok {
						po.Poison()
					}
				}
				// Tell the transport the rank is done: a fault injector
				// holding a reorder frame on one of this rank's links must
				// put it on the wire now, or a peer still waiting for it
				// would block until Close — which only runs after that peer
				// finishes; and a peer waiting for a message this rank never
				// sent fails now. A panicked rank poisoned the transport
				// first, so its peers see PeerFailure, not a finished sender.
				if ro, ok := tr.(RankObserver); ok {
					ro.RankDone(rank)
				}
			}()
			if mc == nil {
				body(p)
				return
			}
			if slot != nil {
				slot.acquire()
			}
			t0 := p.sampleWall()
			p.markWall = t0
			body(p)
			p.meas.Wall = p.sampleWall() - t0
		}(r)
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	raisePanics(panics)
	return rep
}

// raisePanics re-raises rank failures on the caller, preferring real panics
// over the secondary PeerFailure panics they induce on blocked ranks. Every
// genuinely panicked rank is reported — a run where several ranks fail
// (e.g. a collective bug tripping an invariant on each) names them all
// instead of silently dropping all but the first.
func raisePanics(panics []any) {
	var failed, poisoned []string
	for rank, e := range panics {
		if e == nil {
			continue
		}
		if _, isPoison := e.(PeerFailure); isPoison {
			poisoned = append(poisoned, fmt.Sprint(rank))
			continue
		}
		failed = append(failed, fmt.Sprintf("rank %d panicked: %v", rank, e))
	}
	if len(failed) > 0 {
		panic("comm: " + strings.Join(failed, "; "))
	}
	switch len(poisoned) {
	case 0:
	case 1:
		panic(fmt.Sprintf("comm: rank %s aborted by a peer failure", poisoned[0]))
	default:
		panic(fmt.Sprintf("comm: ranks %s aborted by a peer failure", strings.Join(poisoned, ", ")))
	}
}

// RunRank executes body as a single rank of a multi-process run: the
// transport connects to the other ranks' processes (see NewTCPEndpoint).
// It returns this rank's final virtual clock and statistics. The caller
// owns transport cleanup.
func RunRank(rank, n int, m *costmodel.Machine, tr Transport, body func(p *Proc)) (float64, Stats) {
	p := newProc(rank, n, tr, m)
	// RankDone fires whether body returns or panics; a panic keeps going.
	defer func() {
		if ro, ok := tr.(RankObserver); ok {
			ro.RankDone(rank)
		}
	}()
	body(p)
	return p.clock, p.stats
}
