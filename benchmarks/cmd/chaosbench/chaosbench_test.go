package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"

	"repro/internal/comm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The quartile estimator must agree with Python's
// statistics.quantiles(xs, n=4), which the driver applies to run values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 1},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := iqrFrac(c.xs); !near(got, c.wantSpread) {
			t.Errorf("iqrFrac(%v) = %v, want %v", c.xs, got, c.wantSpread)
		}
	}
}

// manualClock is a comm.Clock that moves only when told to.
type manualClock struct {
	mu  sync.Mutex
	now float64
}

func (c *manualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(dt float64) {
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

// scriptedHarness returns a harness whose reps take the scripted walls (one
// per rep, in order) on a manual clock, and whose calibration kernel
// "takes" the scripted samples (one per call, in order).
func scriptedHarness(walls, cals []float64) *harness {
	clk := &manualClock{}
	rep := 0
	h := newHarness(&instance{
		body: func(p *comm.Proc) any {
			if p.Rank() == 0 {
				clk.advance(walls[rep])
				rep++
			}
			p.Barrier()
			return nil
		},
		reference: func() func([]any) error { return func([]any) error { return nil } },
	})
	h.clock = clk
	call := 0
	h.cal.run = func(int) float64 { call++; return cals[call-1] }
	return h
}

func TestCalibrationArithmetic(t *testing.T) {
	if got, want := calibrated(0.5, 0.02, 0.04, 1), 0.5*cRef[1]/0.03; !near(got, want) {
		t.Errorf("calibrated = %v, want %v", got, want)
	}
	// A rep between a kernel sample at the reference speed and one at half
	// speed ran, on average, on a host 1.5x slower than the reference.
	h := scriptedHarness([]float64{0.6}, []float64{cRef[2], 2 * cRef[2]})
	h.check = func([]any) error { return nil }
	s, ok := h.timedRep(2, nil)
	if !ok {
		t.Fatalf("rep failed: %v", h.failures)
	}
	if !near(s.wall, 0.6) || !near(s.slowdown(), 1.5) || !near(s.cal(), 0.4) {
		t.Errorf("wall %v slowdown %v calibrated %v, want 0.6 1.5 0.4", s.wall, s.slowdown(), s.cal())
	}
}

// The calibrator reads its clock right around the kernel.
func TestCalibratorUsesItsClock(t *testing.T) {
	c := newCalibrator(2)
	ticks := []float64{3, 3.25}
	c.now = func() float64 { v := ticks[0]; ticks = ticks[1:]; return v }
	if got := c.run(2); !near(got, 0.25) {
		t.Errorf("kernel time %v, want 0.25", got)
	}
}

// The reported wall metrics are medians over reps of calibrated seconds.
func TestMetricsAreMediansOfCalibratedReps(t *testing.T) {
	// Three pairs; reps alternate 1 rank, 2 ranks. Every kernel sample is
	// at twice the reference time, so calibrated = raw / 2.
	walls := []float64{1, 2, 30, 4, 5, 60}
	var cals []float64
	for i := 0; i < 4*3; i++ {
		cals = append(cals, 2*cRef[1+(i/2)%2])
	}
	h := scriptedHarness(walls, cals)
	h.check = func([]any) error { return nil }
	var res results
	for i := 0; i < 3; i++ {
		p1, p2, ok := h.pair()
		if !ok {
			t.Fatalf("pair failed: %v", h.failures)
		}
		res.p1, res.p2 = append(res.p1, p1), append(res.p2, p2)
	}
	res.setup = []float64{9, 7, 8}
	m := endToEnd(res)
	if !near(m["wall_p1_s"].Value, 2.5) || !near(m["wall_s"].Value, 2) || !near(m["setup_s"].Value, 8) {
		t.Errorf("wall_p1_s %v wall_s %v setup_s %v, want 2.5 2 8",
			m["wall_p1_s"].Value, m["wall_s"].Value, m["setup_s"].Value)
	}
	if h.attempted != 6 || h.failed != 0 {
		t.Errorf("attempted %d failed %d, want 6 0", h.attempted, h.failed)
	}
}

// A rep with a wrong answer, and a rep that panics, are failed operations.
func TestWrongAnswerAndPanicAreFailures(t *testing.T) {
	h := scriptedHarness([]float64{1, 1}, nil)
	h.check = func([]any) error { return os.ErrInvalid }
	if _, ok := h.rep(1, nil); ok {
		t.Error("rep with a wrong answer reported ok")
	}
	h.check = func([]any) error { return nil }
	h.inst.body = func(*comm.Proc) any { panic("boom") }
	if _, ok := h.rep(1, nil); ok {
		t.Error("rep that panicked reported ok")
	}
	if h.attempted != 2 || h.failed != 2 {
		t.Errorf("attempted %d failed %d, want 2 2", h.attempted, h.failed)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 10}
	children := []span{{start: 7, end: 12}, {start: 1, end: 3}, {start: 2, end: 5}, {start: -1, end: 0.5}}
	// Covered inside the parent: [0,0.5] + [1,5] + [7,10] = 7.5.
	if got := selfTime(parent, children); !near(got, 2.5) {
		t.Errorf("selfTime = %v, want 2.5", got)
	}
	if got := selfTime(parent, nil); !near(got, 10) {
		t.Errorf("selfTime with no children = %v, want 10", got)
	}
}

// benchmarkJSON is the shape of ../../../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkRecord(t *testing.T, rec record, want map[string]string) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("record correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	for name, m := range rec.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not a legal name", name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := rec.Metrics[name]; !ok {
			t.Errorf("declared metric %s was not emitted", name)
		}
	}
	if _, err := json.Marshal(rec); err != nil {
		t.Errorf("record does not encode: %v", err)
	}
}

// The harness's workload and metric lists are the ones BENCHMARK.json
// declares, and a toy-size run of every workload emits exactly them.
func TestShortRunsEmitWhatBenchmarkJSONDeclares(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	if len(bj.EndToEnd) != len(endToEndDecl) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEndDecl))
	}
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for i, d := range endToEndDecl {
		e := bj.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Bound != d.bound || e.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, e, d)
		}
		endToEndUnits[d.name] = d.unit
	}
	for _, p := range bj.PerLayer {
		perLayerUnits[p.Name] = p.Unit
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not a legal name", w.name)
		}
		checkRecord(t, runEndToEnd(w, 7, 0, true), endToEndUnits)
	}
	// One traced pass covers every per-layer name: they do not depend on
	// the workload.
	dir := t.TempDir()
	checkRecord(t, runTraced(workloads[3], 7, true, dir), perLayerUnits)
	if _, err := os.Stat(dir + "/dsmc-finegrain.trace.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
	var names []string
	for n := range perLayerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	t.Logf("%d per-layer metrics: %v", len(names), names)
}
