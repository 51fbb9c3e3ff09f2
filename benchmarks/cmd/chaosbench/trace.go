package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/comm"
)

// span is one timed interval on the harness clock. Transport spans carry
// the message they moved.
type span struct {
	name       string // "send", "recv" or "rep"
	peer, tag  int
	bytes      int
	start, end float64
}

func (s span) dur() float64 { return s.end - s.start }

// spanTransport decorates a transport with one span per Send and Recv,
// kept in per-rank slices until the run ends. It is the benchmark's only
// window into the comm layer: the program is not modified. Poisoning passes
// straight through so a failed rank still unblocks its peers.
type spanTransport struct {
	inner comm.Transport
	// sends[r] is appended by whichever goroutine transmits rank r's frames
	// and recvs[r] by rank r itself, so no two goroutines share a slice.
	sends, recvs [][]span
}

func newSpanTransport(n int) *spanTransport {
	t := &spanTransport{inner: comm.NewMemTransport(n), sends: make([][]span, n), recvs: make([][]span, n)}
	for r := 0; r < n; r++ {
		t.sends[r] = make([]span, 0, 1<<13)
		t.recvs[r] = make([]span, 0, 1<<13)
	}
	return t
}

func (t *spanTransport) Send(m comm.Message) {
	s := span{name: "send", peer: m.To, tag: m.Tag, bytes: len(m.Data), start: wallNow()}
	t.inner.Send(m)
	s.end = wallNow()
	t.sends[m.From] = append(t.sends[m.From], s)
}

func (t *spanTransport) Recv(self, from, tag int) comm.Message {
	s := span{name: "recv", peer: from, tag: tag, start: wallNow()}
	m := t.inner.Recv(self, from, tag)
	s.end, s.bytes = wallNow(), len(m.Data)
	t.recvs[self] = append(t.recvs[self], s)
	return m
}

func (t *spanTransport) Close() error { return t.inner.Close() }

func (t *spanTransport) Poison() {
	if p, ok := t.inner.(comm.Poisoner); ok {
		p.Poison()
	}
}

func (t *spanTransport) PoisonLink(to, from int) {
	if p, ok := t.inner.(comm.LinkPoisoner); ok {
		p.PoisonLink(to, from)
	}
}

// selfTime is the part of the parent interval that none of its child spans
// cover: a layer's own time, as opposed to time spent in the layers it
// called. Children may overlap each other and may stick out of the parent.
func selfTime(parent span, children []span) float64 {
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := 0.0, parent.start
	for _, c := range cs {
		lo, hi := max(c.start, edge), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

// tracedRep is one rep run over the span transport.
type tracedRep struct {
	sample
	spans [][]span // transport spans per rank; their parent is sample.span
	// Totals over the spans: mean seconds per rank inside Send and inside
	// Recv, and the median payload of the sends.
	sendS, recvS, p50Bytes float64
}

// tracedRep runs one bracketed rep with spans on.
func (h *harness) tracedRep(n int) (tracedRep, bool) {
	tr := newSpanTransport(n)
	var t tracedRep
	var ok bool
	t.sample, ok = h.timedRep(n, tr)
	for r := 0; r < n; r++ {
		t.spans = append(t.spans, append(tr.sends[r], tr.recvs[r]...))
	}
	var sizes []float64
	for _, spans := range t.spans {
		for _, s := range spans {
			if s.name == "send" {
				t.sendS += s.dur() / float64(n)
				sizes = append(sizes, float64(s.bytes))
			} else {
				t.recvS += s.dur() / float64(n)
			}
		}
	}
	if len(sizes) > 0 { // a 1-rank rep sends nothing
		t.p50Bytes = median(sizes)
	}
	return t, ok
}

// phase returns the rep's measured time in the named phases, raw seconds:
// each key's maximum over ranks, summed over the keys.
func (t tracedRep) phase(keys ...string) float64 {
	s := 0.0
	for _, k := range keys {
		s += t.report.MeasuredPhaseMax(k)
	}
	return s
}

// phaseSumFrac is Σ phase totals ÷ wall on the slowest rank.
func (t tracedRep) phaseSumFrac() float64 {
	slow := t.report.Measured[0]
	for _, m := range t.report.Measured {
		if m.Wall > slow.Wall {
			slow = m
		}
	}
	s := 0.0
	for _, v := range slow.Phases {
		s += v
	}
	return s / slow.Wall
}

// Phase keys as the applications charge them (charmm, dsmc and the loopir
// kernel), grouped by the per-layer metric they feed. They are read from
// Report.Measured; nothing in the program is changed.
var phaseKeys = map[string][]string{
	"app.executor_s":  {"executor"},
	"app.inspector_s": {"schedgen", "schedregen", "inspector"},
	"app.nbupdate_s":  {"nblist_init", "nblist", "nbupdate"},
	"app.move_s":      {"move"},
	"app.collide_s":   {"collide"},
	"app.partition_s": {"partition"},
	"app.remap_s":     {"remap"},
}

// medianOver reduces one number per traced rep to its median.
func medianOver(ts []tracedRep, f func(t tracedRep) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return median(xs)
}

// tracedMetrics reduces the traced pass to its per-layer metrics: u1/u2 are
// the untraced samples of the same run at 1 and 2 ranks, t2 the traced
// 2-rank reps. Durations inside a rep are scaled to calibrated seconds by
// the rep's own calibration factor.
func tracedMetrics(u1, u2 []sample, t2 []tracedRep) map[string]metric {
	scale := func(t tracedRep) float64 { return t.cal() / t.wall }
	wallU1, wallU2 := median(column(u1, sample.cal)), median(column(u2, sample.cal))
	traced := make([]sample, len(t2))
	for i, t := range t2 {
		traced[i] = t.sample
	}
	var slow []float64
	for _, ss := range [][]sample{u1, u2, traced} {
		slow = append(slow, column(ss, sample.slowdown)...)
	}
	sumFrac := medianOver(t2, tracedRep.phaseSumFrac)
	m := map[string]metric{
		"comm.msgs":            {float64(t2[0].msgs), "count"},
		"comm.bytes":           {float64(t2[0].bytes), "B"},
		"comm.msg_bytes_p50":   {medianOver(t2, func(t tracedRep) float64 { return t.p50Bytes }), "B"},
		"comm.send_s":          {medianOver(t2, func(t tracedRep) float64 { return t.sendS * scale(t) }), "s"},
		"comm.recv_wait_s":     {medianOver(t2, func(t tracedRep) float64 { return t.recvS * scale(t) }), "s"},
		"comm.recv_wait_frac":  {medianOver(t2, func(t tracedRep) float64 { return t.recvS / t.wall }), "ratio"},
		"app.phase_sum_frac":   {sumFrac, "ratio"},
		"app.unaccounted_frac": {1 - sumFrac, "ratio"},
		"scale.speedup_p2":     {wallU1 / wallU2, "ratio"},
		"scale.efficiency_p2":  {wallU1 / wallU2 / 2, "ratio"},
		"trace.overhead_frac":  {median(column(traced, sample.cal))/wallU2 - 1, "ratio"},
		"host.slowdown":        {median(slow), "ratio"},
		"noise.wall_iqr_frac":  {iqrFrac(column(u2, sample.cal)), "ratio"},
	}
	for name, keys := range phaseKeys {
		m[name] = metric{medianOver(t2, func(t tracedRep) float64 { return t.phase(keys...) * scale(t) }), "s"}
	}
	return m
}

// dominance checks that the workload still stresses the layer it was chosen
// for; a workload that drifts off its layer makes every later "no change on
// this workload" prediction meaningless, so it fails the run. Shares are of
// raw wall within one rep, medians over the traced reps. The limits sit well
// clear of what the workloads measure today (in brackets), so that host
// noise alone does not trip them.
func dominance(name string, t1, t2 []tracedRep) error {
	// share is the median share of wall the named metrics' phases take.
	share := func(ts []tracedRep, metrics ...string) float64 {
		return medianOver(ts, func(t tracedRep) float64 {
			s := 0.0
			for _, m := range metrics {
				s += t.phase(phaseKeys[m]...)
			}
			return s / t.wall
		})
	}
	recv := medianOver(t2, func(t tracedRep) float64 { return t.recvS / t.wall })
	type limit struct {
		what    string
		value   float64
		atLeast bool
		bound   float64
	}
	var limits []limit
	switch name {
	case "dsmc-finegrain": // [0.61]
		limits = []limit{{"receive wait share of 2-rank wall (hand-off-bound)", recv, true, 0.4}}
	case "dsmc-regular": // [0.68]
		limits = []limit{{"move share of 1-rank wall (inspector-bound)", share(t1, "app.move_s"), true, 0.5}}
	case "kernel-remap": // [0.32-0.35, the inspector counted twice, see README]
		limits = []limit{{"partition+remap+inspector share of 2-rank wall (remap-bound)",
			share(t2, "app.partition_s", "app.remap_s", "app.inspector_s"), true, 0.2}}
	case "charmm-md": // [0.95, 0.17-0.20]
		limits = []limit{
			{"executor+nbupdate share of 1-rank wall (compute-bound)", share(t1, "app.executor_s", "app.nbupdate_s"), true, 0.6},
			{"receive wait share of 2-rank wall (compute-bound)", recv, false, 0.35},
		}
	}
	var err error
	for _, l := range limits {
		op, ok := ">=", l.value >= l.bound
		if !l.atLeast {
			op, ok = "<=", l.value <= l.bound
		}
		fmt.Printf("dominance: %s = %.3f, must be %s %.2f\n", l.what, l.value, op, l.bound)
		if !ok {
			err = fmt.Errorf("%s is %.3f, not %s %.2f", l.what, l.value, op, l.bound)
		}
	}
	return err
}

// traceEvent is one record of the Chrome trace-event format ("X" complete
// events, microseconds). pid is the rep's rank count, tid the rank.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the traced reps to dir/<workload>.trace.json.
func writeTrace(dir, name string, reps []tracedRep) (string, error) {
	var evs []traceEvent
	for i, t := range reps {
		id := fmt.Sprintf("p%d.rep%d", t.ranks, i)
		for r, spans := range t.spans {
			evs = append(evs, traceEvent{
				Name: "rep", Cat: "rep", Ph: "X", Ts: t.span.start * 1e6, Dur: t.span.dur() * 1e6,
				Pid: t.ranks, Tid: r,
				Args: map[string]any{
					"id": id, "wall_s": t.report.Measured[r].Wall,
					"self_s": selfTime(t.span, spans), "phases": t.report.Measured[r].Phases,
				},
			})
			for _, s := range spans {
				evs = append(evs, traceEvent{
					Name: s.name, Cat: "comm", Ph: "X", Ts: s.start * 1e6, Dur: s.dur() * 1e6,
					Pid: t.ranks, Tid: r,
					Args: map[string]any{"parent": id, "peer": s.peer, "tag": s.tag, "bytes": s.bytes},
				})
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// traceRounds is how many times the traced pass alternates an untraced pair
// with a traced 1-rank and 2-rank rep.
const traceRounds = 6

// runTraced is the -trace pass: per-layer metrics from traced reps, the
// dominance self-check, the Chrome trace file, then the layer probes. The
// untraced pairs interleaved with the traced reps give the tracing overhead
// (and the speedup figures) from the same minutes of host time.
func runTraced(w workload, seed int64, short bool, outDir string) record {
	h := newHarness(w.prepare(seed, short))
	h.prologue(1)
	rounds, sz := traceRounds, fullProbes
	if short {
		rounds, sz = 1, shortProbes
	}
	var u1, u2 []sample
	var t1, t2 []tracedRep
	for i := 0; i < rounds; i++ {
		if a, b, ok := h.pair(); ok {
			u1, u2 = append(u1, a), append(u2, b)
		}
		if t, ok := h.tracedRep(1); ok {
			t1 = append(t1, t)
		}
		if t, ok := h.tracedRep(2); ok {
			t2 = append(t2, t)
		}
	}
	rec := h.record()
	if !rec.Correct || len(u2) == 0 || len(t1) == 0 || len(t2) == 0 {
		rec.Correct = false
		return rec
	}
	rec.Metrics = tracedMetrics(u1, u2, t2)
	if !short { // toy sizes do not keep the full sizes' proportions
		if err := dominance(w.name, t1, t2); err != nil {
			fmt.Println("DOMINANCE CHECK FAILED:", err)
			rec.Correct = false
		}
	}
	path, err := writeTrace(outDir, w.name, append(t1, t2...))
	if err != nil {
		fmt.Println("trace not written:", err)
		rec.Correct = false
	} else {
		fmt.Println("trace written to", path)
	}
	for name, m := range runProbes(sz) {
		rec.Metrics[name] = m
	}
	printMetrics(rec.Metrics)
	return rec
}
