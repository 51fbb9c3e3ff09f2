package charmm

import (
	"math"

	"repro/internal/comm"
	"repro/internal/loopir"
	"repro/internal/schedule"
)

// Split-phase executor (cfg.Overlap): phase F with every collective started
// early and interior force work executed while the frames are in flight.
// Per-iteration force contributions go into delta slots and are replayed
// into frc in static iteration order (the loopir overlap executors' scheme),
// so every accumulation lands in the exact blocking order and results are
// bit-identical. Virtual-time charges keep their blocking positions relative
// to the communication events, so modeled clocks are bit-identical too; only
// the measured wall clock improves, with the hidden windows reported under
// the "overlap" phase.
//
// Both force kernels are antisymmetric — the j-side update is the exact
// negation of the i-side update — so a delta slot stores only the i-side
// 3-vector; the replay adds it to the i half and subtracts it from the j
// half, which reproduces the blocking `fj -= s*d` bit for bit at half the
// scratch traffic of a 6-wide slot.
//
// The replay relies on two structural invariants of this workload: bond
// endpoints are distinct atoms (locBI[k] != locBJ[k]) and non-bonded
// partners are strictly greater globals (locJnb entries never equal their
// row's slot), so no iteration aliases its two accumulation slots.

// buildSplits classifies both force loops' iterations as interior or
// boundary against the current localized indices. Charges no virtual time
// (split building is invisible to the model, like the overlap windows).
func buildSplits(s *simState) {
	nLocal := s.ht.NLocal()
	s.splitB = schedule.SplitFlat(s.splitB, s.locBI, s.locBJ, nLocal)
	s.splitNB = schedule.SplitCSR(s.splitNB, s.ptr, s.locJnb, nLocal)
}

// add3 accumulates one 3-vector delta (the i-side half).
func add3(dst, d []float64) {
	dst[0] += d[0]
	dst[1] += d[1]
	dst[2] += d[2]
}

// sub3 applies the j-side half: the exact negation the kernels compute.
func sub3(dst, d []float64) {
	dst[0] -= d[0]
	dst[1] -= d[1]
	dst[2] -= d[2]
}

// bondDelta is bondForce with the i-side update written (not accumulated)
// into d; the caller replays d onto both endpoint halves.
func bondDelta(pi, pj, d []float64, l float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if r == 0 {
		d[0], d[1], d[2] = 0, 0, 0
		return
	}
	s := -bondK * (r - l) / r
	d[0], d[1], d[2] = s*dx, s*dy, s*dz
}

// pairDelta is pairForce with the i-side update written into d.
func pairDelta(pi, pj, d []float64, cutoff2 float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= cutoff2 || r2 == 0 {
		d[0], d[1], d[2] = 0, 0, 0
		return
	}
	s := pairStrength * (1 - r2/cutoff2)
	d[0], d[1], d[2] = s*dx, s*dy, s*dz
}

// bondedInterior computes the bonded deltas whose two atoms are both owned.
// Each iteration owns slot 3k; slots are written by assignment, so the
// reused scratch needs no clearing.
func bondedInterior(s *simState, posBuf, delta []float64, nLocal int) {
	for k := range s.locBI {
		i, j := int(s.locBI[k]), int(s.locBJ[k])
		if i >= nLocal || j >= nLocal {
			continue
		}
		bondDelta(posBuf[3*i:3*i+3], posBuf[3*j:3*j+3], delta[3*k:3*k+3], s.bondLen[k])
	}
}

// bondedBoundary computes the bonded deltas that read a ghost atom (valid
// only after the bonded gather completed).
func bondedBoundary(s *simState, posBuf, delta []float64) {
	for _, k32 := range s.splitB.BndIdx {
		k := int(k32)
		i, j := int(s.locBI[k]), int(s.locBJ[k])
		bondDelta(posBuf[3*i:3*i+3], posBuf[3*j:3*j+3], delta[3*k:3*k+3], s.bondLen[k])
	}
}

// bondedApplyGhost replays the ghost-slot halves of the bonded deltas, in
// static iteration order (only boundary iterations touch ghosts).
func bondedApplyGhost(s *simState, frc, delta []float64, nLocal int) {
	for _, k32 := range s.splitB.BndIdx {
		k := int(k32)
		d := delta[3*k : 3*k+3]
		if i := int(s.locBI[k]); i >= nLocal {
			add3(frc[3*i:3*i+3], d)
		}
		if j := int(s.locBJ[k]); j >= nLocal {
			sub3(frc[3*j:3*j+3], d)
		}
	}
}

// bondedApplyOwned replays the owned-slot halves of every bonded delta, in
// static iteration order.
func bondedApplyOwned(s *simState, frc, delta []float64, nLocal int) {
	for k := range s.locBI {
		d := delta[3*k : 3*k+3]
		if i := int(s.locBI[k]); i < nLocal {
			add3(frc[3*i:3*i+3], d)
		}
		if j := int(s.locBJ[k]); j < nLocal {
			sub3(frc[3*j:3*j+3], d)
		}
	}
}

// nbInterior computes the non-bonded deltas whose partner is owned (row
// atoms are always owned).
func nbInterior(s *simState, posBuf, delta []float64, nLocal int, c2 float64) {
	for i := 0; i < len(s.ptr)-1; i++ {
		pi := posBuf[3*i : 3*i+3]
		for k := int(s.ptr[i]); k < int(s.ptr[i+1]); k++ {
			lj := int(s.locJnb[k])
			if lj >= nLocal {
				continue
			}
			pairDelta(pi, posBuf[3*lj:3*lj+3], delta[3*k:3*k+3], c2)
		}
	}
}

// nbBoundary computes the non-bonded deltas that read a ghost partner
// (valid only after the non-bonded gather completed).
func nbBoundary(s *simState, posBuf, delta []float64, c2 float64) {
	bp := s.splitNB.BndPtr
	for i := 0; i < len(s.ptr)-1; i++ {
		if bp[i] == bp[i+1] {
			continue
		}
		pi := posBuf[3*i : 3*i+3]
		for _, k32 := range s.splitNB.BndIdx[bp[i]:bp[i+1]] {
			k := int(k32)
			lj := int(s.locJnb[k])
			pairDelta(pi, posBuf[3*lj:3*lj+3], delta[3*k:3*k+3], c2)
		}
	}
}

// nbApplyGhost replays the ghost-partner halves of the non-bonded deltas in
// static order (the row half is always owned).
func nbApplyGhost(s *simState, frc, delta []float64) {
	for _, k32 := range s.splitNB.BndIdx {
		k := int(k32)
		lj := int(s.locJnb[k])
		sub3(frc[3*lj:3*lj+3], delta[3*k:3*k+3])
	}
}

// nbApplyOwned replays the row halves and owned-partner halves of every
// non-bonded delta in static scan order.
func nbApplyOwned(s *simState, frc, delta []float64, nLocal int) {
	for i := 0; i < len(s.ptr)-1; i++ {
		fi := frc[3*i : 3*i+3]
		for k := int(s.ptr[i]); k < int(s.ptr[i+1]); k++ {
			d := delta[3*k : 3*k+3]
			add3(fi, d)
			if lj := int(s.locJnb[k]); lj < nLocal {
				sub3(frc[3*lj:3*lj+3], d)
			}
		}
	}
}

// executeStepOverlap is phase F with split-phase data motion. The merged
// configuration hides both loops' interior work behind the one gather and
// the owned-slot replay behind the one scatter; the per-loop configuration
// additionally hides the bonded boundary work behind the non-bonded gather
// and the non-bonded boundary work behind the bonded scatter.
func executeStepOverlap(p *comm.Proc, s *simState, cfg Config) {
	nLocal := s.ht.NLocal()
	posBuf, frc := s.stepBuffers()
	c2 := cfg.Cutoff * cfg.Cutoff
	s.deltaB = growF64(s.deltaB, 3*len(s.locBI))
	s.deltaNB = growF64(s.deltaNB, 3*len(s.locJnb))
	deltaB, deltaNB := s.deltaB, s.deltaNB

	if cfg.Merged {
		gm := schedule.GatherWStart(p, s.sched, posBuf, 3)
		ov := p.Phase(loopir.PhaseOverlap)
		bondedInterior(s, posBuf, deltaB, nLocal)
		nbInterior(s, posBuf, deltaNB, nLocal, c2)
		ov.End()
		gm.Wait()

		bondedBoundary(s, posBuf, deltaB)
		p.ComputeFlops(bondFlops * len(s.locBI))
		nbBoundary(s, posBuf, deltaNB, c2)
		p.ComputeFlops(pairFlops * len(s.locJnb))

		// Ghost halves before the scatter packs them: bonded first, then
		// non-bonded — the blocking per-slot accumulation order.
		bondedApplyGhost(s, frc, deltaB, nLocal)
		nbApplyGhost(s, frc, deltaNB)
		sm := schedule.ScatterWStart(p, s.sched, frc, 3, schedule.OpAdd)
		ov = p.Phase(loopir.PhaseOverlap)
		bondedApplyOwned(s, frc, deltaB, nLocal)
		nbApplyOwned(s, frc, deltaNB, nLocal)
		ov.End()
		sm.Wait()
	} else {
		gmB := schedule.GatherWStart(p, s.schedB, posBuf, 3)
		ov := p.Phase(loopir.PhaseOverlap)
		bondedInterior(s, posBuf, deltaB, nLocal)
		nbInterior(s, posBuf, deltaNB, nLocal, c2)
		ov.End()
		gmB.Wait()

		// The bonded boundary work only reads ghost slots the bonded
		// schedule filled (locBI/locBJ slots all carry the bonded stamp),
		// so it can run while the non-bonded gather fills its disjoint
		// remaining slots.
		gmNB := schedule.GatherWStart(p, s.schedNB, posBuf, 3)
		ov = p.Phase(loopir.PhaseOverlap)
		bondedBoundary(s, posBuf, deltaB)
		bondedApplyGhost(s, frc, deltaB, nLocal)
		ov.End()
		gmNB.Wait()
		p.ComputeFlops(bondFlops * len(s.locBI))

		sm := schedule.ScatterWStart(p, s.schedB, frc, 3, schedule.OpAdd)
		ov = p.Phase(loopir.PhaseOverlap)
		bondedApplyOwned(s, frc, deltaB, nLocal)
		nbBoundary(s, posBuf, deltaNB, c2)
		ov.End()
		sm.Wait()
		for i := 3 * nLocal; i < len(frc); i++ {
			frc[i] = 0 // per-loop schedules: ghost contributions must not leak
		}

		nbApplyGhost(s, frc, deltaNB)
		p.ComputeFlops(pairFlops * len(s.locJnb))
		sm = schedule.ScatterWStart(p, s.schedNB, frc, 3, schedule.OpAdd)
		ov = p.Phase(loopir.PhaseOverlap)
		nbApplyOwned(s, frc, deltaNB, nLocal)
		ov.End()
		sm.Wait()
	}

	for i := 0; i < s.atoms.NLocal(); i++ {
		integrate(s.pos[3*i:3*i+3], s.vel[3*i:3*i+3], frc[3*i:3*i+3], &cfg.Box, cfg.Dt)
	}
	p.ComputeFlops(integrateFlops * s.atoms.NLocal())
}
