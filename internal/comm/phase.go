package comm

// Span is one phase interval on a rank's virtual timeline.
type Span struct {
	Phase      string
	Start, End float64
}

// Mark closes the rank's current phase interval and charges it to phase:
// the virtual time since the last boundary to the rank's phase times
// (Report.Phases) and span list (Report.Spans), and under RunMeasured the
// measured time since the same boundary to Measured.Phases, so the two
// clocks' breakdowns share keys. A boundary is the start of the rank body,
// the previous Mark or a SkipPhase. Phases may repeat; time accumulates.
// The intervals Mark charges tile the rank body, so its measured phases
// never add up to more than the rank's wall.
func (p *Proc) Mark(phase string) {
	now := p.clock
	if p.phases == nil {
		p.phases = make(map[string]float64)
	}
	p.phases[phase] += now - p.markClock
	p.spans = append(p.spans, Span{Phase: phase, Start: p.markClock, End: now})
	p.markClock = now
	w := p.WallNow()
	p.chargePhaseWall(phase, w-p.markWall)
	p.markWall = w
}

// SkipPhase moves the phase boundary to now without charging the time
// since the last one to any phase.
func (p *Proc) SkipPhase() {
	p.markClock = p.clock
	p.markWall = p.WallNow()
}

// chargePhaseWall adds dt measured seconds to the named phase region. It is
// a no-op on modeled runs.
func (p *Proc) chargePhaseWall(name string, dt float64) {
	if p.wall == nil {
		return
	}
	if p.meas.Phases == nil {
		p.meas.Phases = make(map[string]float64)
	}
	p.meas.Phases[name] += dt
}
