package loopir

import (
	"repro/internal/hashtab"
	"repro/internal/recycle"
	"repro/internal/schedule"
)

// SharedSched is a schedule group: the owner of the generated inspector and
// of its §5.3 guard. Every compiled loop inspects through one — its own
// group of one (SumLoop) or two (PairLoop) indirection arrays, or, as the
// target of the program-level schedule-reuse analysis (paper §4/§5.3), one
// group the fortd optimizer points several FORALLs with identical
// indirection usage over one data decomposition at, so the inspector (hash
// + schedule build) runs once per adapt cycle instead of once per loop.
//
// Members are the distinct indirection arrays the group hashes; each gets
// its own stamp in one hash table, and the group schedule is built merged
// over all stamps. Because the optimizer only groups loops with *identical*
// usage, the merged element set equals every member loop's own set, so
// executing a loop against the group schedule moves exactly the bytes the
// per-loop schedule would — results stay bit-identical to unshared
// lowering.
type SharedSched struct {
	prog *Program
	// dec is the data decomposition the members' values index (for pair
	// loops this is the data decomposition, not the iteration one).
	dec     *Decomposition
	members []*IndArray
	seen    []int64 // recorded member versions (§5.3 modification records)

	ht          *hashtab.Table
	stamps      []hashtab.Stamp
	locs        [][]int32
	sched       *schedule.Schedule
	distSeen    int64
	inspections int
}

// NewSharedSched creates an empty schedule group over the data
// decomposition dec.
func (pr *Program) NewSharedSched(dec *Decomposition) *SharedSched {
	return &SharedSched{prog: pr, dec: dec, distSeen: -1}
}

// add registers an indirection array with the group and returns its member
// index. Adding the same array again returns the existing index (loops that
// use the same array share one stamp and one localized-index slice).
func (g *SharedSched) add(ia *IndArray) int {
	for m, have := range g.members {
		if have == ia {
			return m
		}
	}
	g.members = append(g.members, ia)
	g.seen = append(g.seen, -1)
	g.stamps = append(g.stamps, 0)
	g.locs = append(g.locs, nil)
	g.distSeen = -1 // membership changed: force a full build on next Inspect
	return len(g.members) - 1
}

// Inspections returns how many times the group inspector actually ran.
func (g *SharedSched) Inspections() int { return g.inspections }

// loc returns the localized indices of member m (valid after Inspect).
func (g *SharedSched) loc(m int) []int32 { return g.locs[m] }

// inspect is the guard and the inspector it protects: a no-op unless a
// recorded version is stale, else one hash table, one stamp per member, one
// merged schedule build — the preprocessing all member loops then execute
// against. Collective (all ranks reach the same staleness verdict because
// versions advance in collective calls).
func (g *SharedSched) inspect() {
	redistributed := g.ht == nil || g.distSeen != g.dec.version
	stale := redistributed
	for m, ia := range g.members {
		if g.seen[m] != ia.version {
			stale = true
		}
	}
	if !stale {
		return
	}
	if redistributed {
		// Redistribution (or first run, or a new member) invalidates every
		// translation: one empty table on the new distribution for the whole
		// group, its storage kept.
		g.ht = g.dec.dist.NewHashTableInto(g.ht)
		for m := range g.members {
			g.stamps[m] = g.ht.NewStamp()
			recycle.PoisonI32(g.locs[m])
		}
	} else {
		// Some member adapted: clear the stamps and rehash; index analysis
		// for unchanged entries is reused from the hash table.
		for _, s := range g.stamps {
			g.ht.ClearStamp(s)
		}
	}
	total := 0
	var include hashtab.Stamp
	for m, ia := range g.members {
		g.locs[m] = g.ht.HashInto(g.locs[m], ia.vals, g.stamps[m])
		include |= g.stamps[m]
		total += len(ia.vals)
	}
	g.sched = schedule.BuildInto(g.sched, g.prog.p, g.ht, include, 0)
	// Generated inspectors drive the hash and schedule calls through
	// runtime descriptors rather than specialized code; the constant-
	// factor interpretation overhead is what separates the Inspector
	// columns of Table 6.
	g.prog.p.ComputeMem(total)
	g.distSeen = g.dec.version
	for m, ia := range g.members {
		g.seen[m] = ia.version
	}
	g.inspections++
}
