package adapt

import (
	"fmt"
	"strconv"

	"repro/internal/comm"
)

// Trigger owns one run's "when to remap" decision — the head of the
// adaptive cycle (decide, partition, remap, re-inspect). An application
// builds one per rank from its configuration, asks Due once per time step
// and wraps every repartition+remap+re-inspection in Episode; the mode
// parsing, the periodic test, the policy's cost sampling, the episode
// pricing and the record of remap steps live here and nowhere else.
type Trigger struct {
	// Steps lists the steps at which Episode ran, in order (identical on all
	// ranks: periodic remaps are schedule-driven and policy remaps decide
	// from AllReduce'd inputs).
	Steps []int

	every  int     // remap when step%every == 0; 0 = no periodic remaps
	active bool    // the configuration asked for load balancing at all
	pol    *policy // non-nil under "policy"
	// lastCost is the cost sample the next policy step's delta is taken
	// against.
	lastCost float64
}

// NewTrigger parses the remap selector: a step count N (remap every N
// steps; "" and "0" never remap after set-up), "static" (the initial
// partition only) or "policy" (Policy decides online; verify turns on its
// cross-rank agreement check, which no other selector has decisions for).
func NewTrigger(selector string, verify bool) (*Trigger, error) {
	if verify && selector != "policy" {
		return nil, fmt.Errorf("adapt: decision verification needs remap \"policy\", not %q", selector)
	}
	t := &Trigger{active: selector != "" && selector != "0"}
	switch selector {
	case "", "static":
	case "policy":
		t.pol = &policy{}
		t.pol.verify = verify
	default:
		n, err := strconv.Atoi(selector)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("adapt: bad remap %q (want a step count, static or policy)", selector)
		}
		t.every = n
	}
	return t, nil
}

// Mode names a valid selector's regime for reports: "" for never after
// set-up, "periodic:N" for a step count N, "static" and "policy" as given.
func Mode(selector string) string {
	switch selector {
	case "0":
		return ""
	case "", "static", "policy":
		return selector
	}
	return "periodic:" + selector
}

// Active reports whether the run balances load at all: false only for an
// empty or zero selector, the configuration under which DSMC keeps its
// initial BLOCK distribution.
func (t *Trigger) Active() bool { return t.active }

// Start begins cost sampling; call it once, immediately before the first
// time step, so that set-up (or a restore) is not billed to that step.
func (t *Trigger) Start(p *comm.Proc) { t.lastCost = costPoint(p) }

// Due reports whether to remap at this step. Under "policy" it is
// collective — every rank must call it once per step, and every rank gets
// the same verdict — and the step's cost is what the rank computed since
// the previous Due, Episode or Start.
func (t *Trigger) Due(p *comm.Proc, step int) bool {
	if t.pol == nil {
		return t.every > 0 && step%t.every == 0
	}
	now := costPoint(p)
	due := t.pol.step(p, now-t.lastCost)
	t.lastCost = now
	return due
}

// Episode runs body, one whole remap episode (partition, distribution
// rebuild, migration, re-inspection, waits included), records step, and
// under "policy" prices the episode for the decision rule (collective).
// step 0 is the initial partition before the first time step: it is priced,
// to bootstrap the policy's remap-cost estimate, but not recorded.
func (t *Trigger) Episode(p *comm.Proc, step int, body func()) {
	t0 := episodePoint(p)
	body()
	if t.pol != nil {
		t.pol.observeRemap(p, episodePoint(p)-t0)
		t.lastCost = costPoint(p)
	}
	if step > 0 {
		t.Steps = append(t.Steps, step)
	}
}

// costPoint samples a rank's cumulative compute cost: virtual ComputeTime
// on modeled runs, wall time outside blocking receives under
// comm.RunMeasured.
func costPoint(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow() - p.Measured().CommWall
	}
	return p.Stats().ComputeTime
}

// episodePoint samples the clock that prices a whole remap episode.
func episodePoint(p *comm.Proc) float64 {
	if p.MeasuredMode() {
		return p.WallNow()
	}
	return p.Clock()
}
