package main

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// shape is the shape of an end-to-end run: `setups` prologues, then timed
// pairs until `seconds` of measuring have passed and never fewer than
// minPairs.
type shape struct {
	setups      int     // prologues per run; setup_s is their median
	warmupPairs int     // warm-up pairs inside each prologue
	minPairs    int     // floor on timed pairs, whatever seconds says
	seconds     float64 // how long the timed pairs measure
}

// fullShape is the shape of a measurement; shortShape that of the smoke
// test, which only has to exercise every step once.
func fullShape(seconds float64) shape { return shape{3, 2, 16, seconds} }

var shortShape = shape{1, 1, 1, 0}

// repOutcome is what one complete run of a workload at one rank count
// produced. Everything except wall and allocMB must repeat exactly.
type repOutcome struct {
	report  *comm.Report
	span    span    // the Run call on the harness clock
	wall    float64 // raw seconds, Report.MaxMeasuredWall
	allocMB float64 // heap allocated during the run
	virtual float64 // Report.MaxClock
	msgs    int64
	bytes   int64
}

// harness runs reps of one instance, checks each against the oracle and
// against the first rep at the same rank count, and counts operations.
type harness struct {
	inst      *instance
	cal       *calibrator
	clock     comm.Clock // times the ranks; nil is the host's wall clock (tests script it)
	check     func(answers []any) error
	first     map[int]repOutcome // rank count -> rep 0
	attempted int
	failed    int
	failures  []string
}

func newHarness(inst *instance) *harness {
	return &harness{inst: inst, cal: newCalibrator(2), first: map[int]repOutcome{}}
}

// fail records a failed operation.
func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 10 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// record starts the output record from the operation counts, printing the
// first few failures.
func (h *harness) record() record {
	for _, f := range h.failures {
		fmt.Println("FAILED:", f)
	}
	return record{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed}
}

// rep is one operation: a complete run on n ranks over tr (a fresh
// in-memory transport when nil). A rep that panics, gives a wrong answer
// or departs from the first rep's virtual time, message or byte count is
// counted as failed; ok reports whether its timings may be used.
func (h *harness) rep(n int, tr comm.Transport) (out repOutcome, ok bool) {
	h.attempted++
	if tr == nil {
		tr = comm.NewMemTransport(n)
	}
	answers := make([]any, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := func() (err error) {
		defer func() {
			if e := recover(); e != nil {
				err = fmt.Errorf("panic: %v", e)
			}
		}()
		out.span = span{name: "rep", start: h.cal.now()}
		defer func() { out.span.end = h.cal.now() }()
		out.report = comm.RunMeasuredTransport(n, costmodel.IPSC860(), tr, comm.MeasureOpts{Clock: h.clock},
			func(p *comm.Proc) {
				// RunMeasured has locked this rank to an OS thread; bind
				// that thread to the rank's own CPU, where the calibration
				// kernel samples the host's speed.
				defer pinThread(p.Rank())()
				answers[p.Rank()] = h.inst.body(p)
			})
		return nil
	}()
	runtime.ReadMemStats(&after)
	if err == nil {
		err = h.check(answers)
	}
	if err != nil {
		h.fail("%d-rank rep: %v", n, err)
		return out, false
	}
	out.wall = out.report.MaxMeasuredWall()
	out.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	out.virtual = out.report.MaxClock()
	out.msgs = out.report.TotalMsgsSent()
	out.bytes = out.report.TotalBytesSent()
	first, seen := h.first[n]
	if !seen {
		h.first[n] = out
		return out, true
	}
	if out.virtual != first.virtual || out.msgs != first.msgs || out.bytes != first.bytes {
		h.fail("%d-rank rep not deterministic: virtual %v msgs %d bytes %d, first rep had %v %d %d",
			n, out.virtual, out.msgs, out.bytes, first.virtual, first.msgs, first.bytes)
		return out, false
	}
	return out, true
}

// sample is one timed rep with the calibration samples that bracket it.
type sample struct {
	repOutcome
	calBefore, calAfter float64
	ranks               int
}

// cal is the rep's wall in calibrated seconds.
func (s sample) cal() float64 { return calibrated(s.wall, s.calBefore, s.calAfter, s.ranks) }

// slowdown is how much slower than the reference host the rep's moment was.
func (s sample) slowdown() float64 { return 0.5 * (s.calBefore + s.calAfter) / cRef[s.ranks] }

// timedRep brackets one rep with calibration samples.
func (h *harness) timedRep(n int, tr comm.Transport) (sample, bool) {
	s := sample{ranks: n}
	s.calBefore = h.cal.run(n)
	var ok bool
	s.repOutcome, ok = h.rep(n, tr)
	s.calAfter = h.cal.run(n)
	return s, ok
}

// pair is the unit of measurement: a 1-rank rep and a 2-rank rep back to
// back, each bracketed by calibration on its own thread count.
func (h *harness) pair() (p1, p2 sample, ok bool) {
	p1, ok1 := h.timedRep(1, nil)
	p2, ok2 := h.timedRep(2, nil)
	return p1, p2, ok1 && ok2
}

// prologue is the untimed part of a run, priced as setup_s: solve the
// sequential reference for the oracle, then run warm-up pairs. It is
// normalised piecewise — the reference solve by the 1-thread calibrations
// around it, each warm-up rep by its own bracket — and the pieces are
// summed, so drift during a multi-second prologue cancels too.
func (h *harness) prologue(warmupPairs int) (calibratedS, rawS float64) {
	c0 := h.cal.run(1)
	t0 := h.cal.now()
	// The reference is sequential: solve it on the CPU the 1-thread
	// calibration samples.
	onCPU(0, func() { h.check = h.inst.reference() })
	rawS = h.cal.now() - t0
	c1 := h.cal.run(1)
	calibratedS = calibrated(rawS, c0, c1, 1)
	for i := 0; i < warmupPairs; i++ {
		t0 = h.cal.now()
		p1, p2, _ := h.pair()
		span := h.cal.now() - t0
		// The pair's own time, calibrations excluded, scaled by the host
		// speed its two reps saw.
		work := span - p1.calBefore - p1.calAfter - p2.calBefore - p2.calAfter
		rawS += work
		calibratedS += work / (0.5 * (p1.slowdown() + p2.slowdown()))
	}
	return calibratedS, rawS
}

// onCPU runs f on a goroutine locked to an OS thread bound to the slot-th
// allowed CPU, and waits for it.
func onCPU(slot int, f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer pinThread(slot)()
		f()
	}()
	<-done
}

// results are the timed samples of a run.
type results struct {
	setup, setupRaw []float64 // calibrated and raw seconds per prologue
	p1, p2          []sample
}

// measure is the end-to-end pass: prologues, then timed pairs.
func (h *harness) measure(sh shape) results {
	var res results
	for i := 0; i < sh.setups; i++ {
		c, raw := h.prologue(sh.warmupPairs)
		res.setup, res.setupRaw = append(res.setup, c), append(res.setupRaw, raw)
	}
	start := h.cal.now()
	for len(res.p1) < sh.minPairs || h.cal.now()-start < sh.seconds {
		p1, p2, ok := h.pair()
		if ok {
			res.p1 = append(res.p1, p1)
			res.p2 = append(res.p2, p2)
		}
		if h.failed > 3 {
			break // a broken build fails every rep; do not spend the budget on it
		}
	}
	return res
}

// rawWall is a sample's uncalibrated wall.
func rawWall(s sample) float64 { return s.wall }

// column extracts one number from every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
