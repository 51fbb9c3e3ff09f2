// Package adapt implements runtime-adaptive iteration scheduling and an
// online "when to remap" policy engine on top of the CHAOS-style runtime.
//
// The paper fixes iteration partitioning per phase and studies adaptivity
// offline (the Table 7 remap-frequency sweep). This package turns both
// knobs into online controllers:
//
//   - Controller sizes executor iteration chunks from the observed
//     per-unit cost (virtual clock by default, wall clock under
//     comm.RunMeasured) and plans deterministic, cost-charged work
//     stealing of whole owner-aligned chunks so self-scheduled loops stay
//     bit-identical to the static schedule.
//   - Policy watches per-step compute-cost skew across ranks, fits the
//     cost of a repartition+remap episode from the last observed one, and
//     triggers a remap only when the modeled payoff over a lookahead
//     window exceeds that cost, with hysteresis and a cooldown.
//   - Trigger is what an application holds: it resolves the configured
//     remap selector to "never", a fixed period or a Policy, and owns the
//     cost sampling and episode pricing that feed the Policy.
//
// Every decision either controller makes is derived exclusively from
// AllReduce'd quantities, so all ranks compute identical plans and
// verdicts without any extra agreement round.
package adapt

import (
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/recycle"
)

// Steal names one whole chunk moved from a donor rank to a thief rank for
// one execution of a self-scheduled loop. Chunk indexes the donor's local
// chunk list; the planner only ever takes the current tail, so a donor's
// stolen chunks form a suffix of its list and the donor can replay their
// contributions after all locally-executed chunks, in ascending chunk
// order — exactly the static iteration order.
type Steal struct {
	Donor, Thief, Chunk int
}

// Controller sizes iteration chunks from observed per-unit cost and plans
// deterministic work stealing for one self-scheduled loop. One Controller
// belongs to one loop on one rank; its collective Plan call gives every
// rank the identical steal plan.
type Controller struct {
	// targetChunks is how many chunks the sizer aims to cut one rank's
	// mean workload into: finer chunks steal better, coarser chunks
	// observe better.
	targetChunks int
	// minChunkUnits floors the chunk size in loop units (pairs or
	// iterations) so observation noise cannot shatter tiny loops.
	minChunkUnits int

	ewmaAlpha   float64
	costPerUnit float64 // local EWMA of observed per-unit cost
	seeded      bool
	globalMean  float64 // mean per-rank load from the last Plan

	// Steal-overhead model, installed by the loop at enable time.
	alpha        float64 // per-message startup cost
	beta         float64 // per-byte transfer cost
	wireBytes    float64 // wire bytes per stolen unit (inputs + deltas)
	ownerPerUnit float64 // donor-side pack + replay cost per stolen unit
	thiefPerUnit float64 // thief-side unpack/store cost per stolen unit

	obs, scratch []float64
	plan         []Steal
	sends        []Steal // this rank donates, ascending Chunk
	work         []Steal // this rank executes, ascending (Donor, Chunk)
	loads        []float64
	chunkAvg     []float64
	unitAvg      []float64
	left         []int
	floor        []int
	role         []int8 // roleNone / roleDonor / roleThief per rank
}

const (
	roleNone int8 = iota
	roleDonor
	roleThief
)

// NewController returns a Controller with default tuning.
func NewController() *Controller {
	return &Controller{targetChunks: 8, minChunkUnits: 16, ewmaAlpha: 0.4}
}

// Configure installs the steal-overhead model for the loop this controller
// schedules: unitFlops seeds the per-unit cost estimate before the first
// observation, unitWireBytes is the wire traffic per stolen unit (inputs
// out plus deltas back), and ownerMem/thiefMem are the irregular memory
// operations per stolen unit on each side (pack+replay, unpack+store).
func (c *Controller) Configure(m *costmodel.Machine, unitFlops, unitWireBytes, ownerMem, thiefMem int) {
	c.alpha = m.Alpha
	c.beta = m.Beta
	c.wireBytes = float64(unitWireBytes)
	c.ownerPerUnit = m.MemCost(ownerMem)
	c.thiefPerUnit = m.MemCost(thiefMem)
	if !c.seeded && unitFlops > 0 {
		c.costPerUnit = m.FlopCost(unitFlops)
		c.seeded = true
	}
}

// ChunkUnits returns the chunk size, in loop units, for a loop with nUnits
// local units. Chunks are sized so one chunk costs about 1/TargetChunks of
// the machine-mean per-rank load (from the last Plan): an overloaded rank
// cuts more, finer-grained chunks than its peers, which is exactly what
// the tail-stealing planner wants to move.
func (c *Controller) ChunkUnits(nUnits int) int {
	if nUnits <= 0 {
		return 1
	}
	tgt := c.targetChunks
	if tgt < 1 {
		tgt = 1
	}
	u := nUnits / tgt
	if c.globalMean > 0 && c.costPerUnit > 0 {
		u = int(c.globalMean/float64(tgt)/c.costPerUnit + 0.5)
	}
	if u < c.minChunkUnits {
		u = c.minChunkUnits
	}
	if u > nUnits {
		u = nUnits
	}
	return u
}

// Observe feeds one executed chunk's measured cost (virtual-clock advance,
// or wall-clock advance under measured mode) into the per-unit EWMA.
func (c *Controller) Observe(units int, cost float64) {
	if units <= 0 || cost < 0 {
		return
	}
	per := cost / float64(units)
	if !c.seeded {
		c.costPerUnit, c.seeded = per, true
		return
	}
	// The conversion rounds the product, so no GOARCH fuses it into the sum
	// (see costmodel.MsgCost); the same holds for every EWMA in the package.
	c.costPerUnit += float64(c.ewmaAlpha * (per - c.costPerUnit))
}

// CostPerUnit exposes the current per-unit cost estimate (for tests and
// reports).
func (c *Controller) CostPerUnit() float64 { return c.costPerUnit }

// Plan is a collective call: every rank passes the estimated cost and unit
// count of each of its local chunks, plus the length of its stealable
// chunk suffix (trailing chunks a thief may execute; chunks containing
// aliased pairs are excluded because their in-place add order cannot be
// replayed from deltas). The vectors are AllReduce'd and every rank runs
// the identical greedy planner over the identical reduced view. The
// resulting plan is available via Sends (chunks this rank donates) and
// Work (chunks this rank executes for others).
func (c *Controller) Plan(p *comm.Proc, chunkCost []float64, chunkUnits []int, stealable int) {
	n := p.Size()
	c.plan = c.plan[:0]
	c.sends = c.sends[:0]
	c.work = c.work[:0]
	if n == 1 {
		return
	}
	c.obs = recycle.Sized(c.obs, 4*n)
	c.scratch = recycle.Sized(c.scratch, 4*n)
	for i := range c.obs {
		c.obs[i] = 0
	}
	var total float64
	units := 0
	for i, cost := range chunkCost {
		total += cost
		units += chunkUnits[i]
	}
	me := p.Rank()
	c.obs[4*me] = total
	c.obs[4*me+1] = float64(len(chunkCost))
	c.obs[4*me+2] = float64(units)
	c.obs[4*me+3] = float64(stealable)
	c.scratch = p.AllReduceF64Into(comm.OpSum, c.obs, c.scratch)
	c.planFromObs(n)
	for _, s := range c.plan {
		if s.Donor == me {
			c.sends = append(c.sends, s)
		}
		if s.Thief == me {
			c.work = append(c.work, s)
		}
	}
	// Donors send stolen inputs in ascending chunk order, so each thief's
	// FIFO stream from one donor matches the donor's ascending-chunk
	// replay order. Insertion sorts keep the planner allocation-free
	// (sort.Slice closures allocate).
	for i := 1; i < len(c.sends); i++ {
		for j := i; j > 0 && c.sends[j].Chunk < c.sends[j-1].Chunk; j-- {
			c.sends[j], c.sends[j-1] = c.sends[j-1], c.sends[j]
		}
	}
	for i := 1; i < len(c.work); i++ {
		for j := i; j > 0 && workLess(c.work[j], c.work[j-1]); j-- {
			c.work[j], c.work[j-1] = c.work[j-1], c.work[j]
		}
	}
}

func workLess(a, b Steal) bool {
	if a.Donor != b.Donor {
		return a.Donor < b.Donor
	}
	return a.Chunk < b.Chunk
}

// Sends returns the steals this rank donates, ascending by chunk index.
// Valid until the next Plan.
func (c *Controller) Sends() []Steal { return c.sends }

// Work returns the steals this rank executes for donors, ascending by
// (donor, chunk). Valid until the next Plan.
func (c *Controller) Work() []Steal { return c.work }

// planFromObs runs the greedy makespan-descent planner over the reduced
// observation vector. Pure: every rank reaches the identical plan because
// the inputs are identical and every tie-break is by lowest rank.
func (c *Controller) planFromObs(n int) {
	c.loads = recycle.Sized(c.loads, n)
	c.chunkAvg = recycle.Sized(c.chunkAvg, n)
	c.unitAvg = recycle.Sized(c.unitAvg, n)
	c.left = recycle.Sized(c.left, n)
	c.floor = recycle.Sized(c.floor, n)
	c.role = recycle.Sized(c.role, n)
	var sum float64
	for r := 0; r < n; r++ {
		c.loads[r] = c.obs[4*r]
		nc := c.obs[4*r+1]
		if nc > 0 {
			c.chunkAvg[r] = c.obs[4*r] / nc
			c.unitAvg[r] = c.obs[4*r+2] / nc
		} else {
			c.chunkAvg[r], c.unitAvg[r] = 0, 0
		}
		c.left[r] = int(nc)
		// A donor may never steal past its stealable suffix (or give away
		// its last chunk).
		c.floor[r] = int(nc) - int(c.obs[4*r+3])
		c.role[r] = roleNone
		sum += c.loads[r]
	}
	c.globalMean = sum / float64(n)
	for iter := 0; iter < 8*n; iter++ {
		// Donors and thieves stay disjoint: a rank that has received work
		// never donates (and vice versa), so the payload exchange is a
		// one-way bipartite flow that cannot deadlock.
		donor, thief := -1, -1
		for r := 0; r < n; r++ {
			if c.role[r] != roleThief && (donor < 0 || c.loads[r] > c.loads[donor]) {
				donor = r
			}
			if c.role[r] != roleDonor && (thief < 0 || c.loads[r] < c.loads[thief]) {
				thief = r
			}
		}
		if donor < 0 || thief < 0 || donor == thief || c.left[donor] <= 1 || c.left[donor] <= c.floor[donor] {
			return
		}
		move := c.chunkAvg[donor]
		units := c.unitAvg[donor]
		if move <= 0 {
			return
		}
		// Cost-charged payoff: moving the tail chunk must strictly lower
		// the pairwise makespan after paying for the extra messages, the
		// wire traffic, and the pack/replay and unpack/store work. The
		// conversions round each product, so no GOARCH fuses it into the
		// sum (see costmodel.MsgCost).
		donorNew := c.loads[donor] - move + float64(units*c.ownerPerUnit) + c.alpha
		thiefNew := c.loads[thief] + move + float64(units*c.thiefPerUnit) + c.alpha + float64(c.beta*units*c.wireBytes)
		newMax := donorNew
		if thiefNew > newMax {
			newMax = thiefNew
		}
		if newMax >= c.loads[donor] {
			return
		}
		c.plan = append(c.plan, Steal{Donor: donor, Thief: thief, Chunk: c.left[donor] - 1})
		c.left[donor]--
		c.loads[donor] = donorNew
		c.loads[thief] = thiefNew
		c.role[donor] = roleDonor
		c.role[thief] = roleThief
	}
}
