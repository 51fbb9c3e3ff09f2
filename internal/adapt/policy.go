package adapt

import (
	"repro/internal/comm"
	"repro/internal/recycle"
)

// policy is the online "when to remap" controller: it generalizes the
// paper's Table 7 remap-frequency sweep into a decision rule evaluated
// every step.
//
// Each step every rank reports its local step cost (per-step compute-time
// advance; under measured mode, wall time net of communication waits). The
// vector is AllReduce'd, so each rank sees the identical per-rank cost
// profile and runs the identical pure decision rule:
//
//	gain        = max(cost) - mean(cost)  // step time lost to skew
//	recoverable = EWMA(gain) - floor      // the part a remap could remove
//	debt       += max(0, recoverable)     // loss paid since the last remap
//	remap when  sinceRemap >= cooldown
//	        &&  recoverable * lookahead > remapCost * hysteresis
//	        &&  debt                    > remapCost * 0.5
//
// remapCost is fitted online from observed repartition+remap episodes
// (ObserveRemap), bootstrapped by the initial partition. floor is the
// residual skew a remap cannot remove (partition granularity, intrinsic
// cost noise), fitted from the first gain observed after each remap: only
// skew in excess of it is recoverable, so counting the full gain would
// re-trigger forever on imbalance no repartition can fix.
//
// The debt term is the ski-rental argument: remap once the imbalance
// actually paid since the last remap would have bought a repartition.
// When skew grows at rate r this self-times remaps to the optimal period
// sqrt(2*remapCost/r) without knowing r, and re-times them as r changes —
// the edge an online policy has over the best fixed period. The lookahead
// projection is the forward guard: however large the accumulated debt, a
// remap must still be projected to pay for itself over the window, which
// keeps a marginal gain inside the hysteresis band from ever triggering.
// hysteresis > 1 and the cooldown bound the frequency, so the controller
// never thrashes when gain hovers near the break-even point.
//
// The four tuning values are constants: the rule times its remaps from the
// observed costs (the fitted remapCost, the floor and the debt), so no
// caller has a reason to tune them. The zero Policy is ready to use.
type policy struct {
	// verify cross-checks every decision (and the state feeding it)
	// across ranks with an extra pair of reductions, panicking on
	// divergence. Test instrumentation; off by default.
	verify bool

	remapCost  float64
	haveCost   bool
	gain       float64
	haveGain   bool
	floor      float64
	haveFloor  bool
	awaitFloor bool
	debt       float64
	since      int
	steps      int

	obs, scratch  []float64
	fp, fpScratch []float64

	// decisions records the 1-based step numbers at which Step returned
	// true (for tests and reports).
	decisions []int
}

// The policy's tuning (see Policy).
const (
	// lookahead is the window, in steps, over which a remap's balance
	// improvement is assumed to persist.
	lookahead = 12
	// hysteresis scales the fitted remap cost in the decision rule; the
	// projected payoff must exceed remapCost*hysteresis.
	hysteresis = 1.2
	// cooldown is the minimum number of steps between remaps.
	cooldown = 3
	// ewmaAlpha smooths the per-step gain signal and the floor's increases.
	ewmaAlpha = 0.5
)

// step observes one time step and returns whether to remap now. Collective:
// every rank must call it once per step with its own local cost, and every
// rank receives the identical verdict because the rule sees only the
// AllReduce'd cost vector.
func (pol *policy) step(p *comm.Proc, localCost float64) bool {
	pol.steps++
	pol.since++
	n := p.Size()
	pol.obs = recycle.Sized(pol.obs, n)
	pol.scratch = recycle.Sized(pol.scratch, n)
	for i := range pol.obs {
		pol.obs[i] = 0
	}
	pol.obs[p.Rank()] = localCost
	pol.scratch = p.AllReduceF64Into(comm.OpSum, pol.obs, pol.scratch)
	dec := pol.decide(pol.obs)
	if pol.verify {
		pol.verifyAgreement(p, dec)
	}
	if dec {
		pol.since = 0
		// The remap invalidates the skew history: the gain estimate and the
		// debt must be rebuilt from post-remap observations, or the stale
		// pre-remap skew would re-trigger as soon as the cooldown expires.
		// The next step's fresh gain also refits the residual floor.
		pol.gain, pol.haveGain = 0, false
		pol.debt = 0
		pol.awaitFloor = true
		pol.decisions = append(pol.decisions, pol.steps)
	}
	return dec
}

// decide is the pure decision rule. Its only inputs are the AllReduce'd
// per-rank step costs and policy state derived from previously reduced
// values — never a local clock, stat, or message — so every rank computes
// the identical verdict. chaosvet's adapt-decide analyzer enforces this
// shape.
func (pol *policy) decide(red []float64) bool {
	var max, sum float64
	for _, v := range red {
		sum += v
		if v > max {
			max = v
		}
	}
	gain := max - sum/float64(len(red))
	if pol.awaitFloor {
		// First observation after a remap: whatever skew survived the fresh
		// partition is unrecoverable, so it fits the floor. The fit follows
		// decreases immediately but smooths increases, because a post-remap
		// sample is contaminated upward by whatever skew redeveloped during
		// the step itself — tracking it symmetrically ratchets the floor up
		// and starves later remaps.
		switch {
		case !pol.haveFloor:
			pol.floor, pol.haveFloor = gain, true
		case gain < pol.floor:
			pol.floor = gain
		default:
			pol.floor += float64(ewmaAlpha * (gain - pol.floor))
		}
		pol.awaitFloor = false
	}
	if !pol.haveGain {
		pol.gain, pol.haveGain = gain, true
	} else {
		pol.gain += float64(ewmaAlpha * (gain - pol.gain))
	}
	// Debt accrues from the raw per-step gain: the EWMA's smoothing lag
	// would systematically under-count a growing skew ramp.
	if excess := gain - pol.floor; excess > 0 {
		pol.debt += excess
	}
	recoverable := pol.gain - pol.floor
	if pol.since < cooldown || recoverable <= 0 {
		return false
	}
	// The hysteresis margin guards the noisy projection. The debt bar sits
	// at half the ski-rental break-even: with the projection already
	// clearing the margin the skew is confirmed growing, so the debt only
	// needs to rule out a transient — waiting for the full break-even
	// knowingly burns another remap's worth of imbalance first.
	return recoverable*lookahead > pol.remapCost*hysteresis &&
		pol.debt > 0.5*pol.remapCost
}

// observeRemap fits the remap-cost estimate from an observed repartition+
// remap episode: localCost is this rank's clock advance across the episode,
// and the fitted cost is the AllReduce'd maximum (the makespan the machine
// paid), EWMA-smoothed across episodes. Collective.
func (pol *policy) observeRemap(p *comm.Proc, localCost float64) {
	c := p.AllReduceScalarF64(comm.OpMax, localCost)
	if !pol.haveCost {
		pol.remapCost, pol.haveCost = c, true
		return
	}
	pol.remapCost += float64(0.5 * (c - pol.remapCost))
}

// verifyAgreement reduces a fingerprint of the decision and the state
// feeding it (gain, floor, debt, remapCost) with both OpMin and OpMax;
// any cross-rank divergence makes the two disagree, and the run panics
// instead of silently desynchronizing.
func (pol *policy) verifyAgreement(p *comm.Proc, dec bool) {
	const fpLen = 5
	pol.fp = recycle.Sized(pol.fp, fpLen)
	pol.fpScratch = recycle.Sized(pol.fpScratch, fpLen)
	local := [fpLen]float64{0, pol.gain, pol.floor, pol.debt, pol.remapCost}
	if dec {
		local[0] = 1
	}
	copy(pol.fp, local[:])
	pol.fpScratch = p.AllReduceF64Into(comm.OpMin, pol.fp, pol.fpScratch)
	var mins [fpLen]float64
	copy(mins[:], pol.fp)
	copy(pol.fp, local[:])
	pol.fpScratch = p.AllReduceF64Into(comm.OpMax, pol.fp, pol.fpScratch)
	for i := range mins {
		if mins[i] != pol.fp[i] {
			panic("adapt: policy decision diverged across ranks")
		}
	}
}
