package hashtab

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/ttable"
)

// oracle is a map-backed model of the table that also charges the virtual
// clock by the documented formula: per HashInto, 6 memory operations per
// reference; then, when there are unknowns or the translation table is not
// Replicated, the translation table's own dereference of the unknowns and
// 10 per unknown; then 2 per reference. ClearStamp and SelectInto charge one
// per entry.
type oracle struct {
	p            *comm.Proc
	tt           *ttable.Table
	idx          map[int32]int
	entries      []Entry
	nGhosts      int
	probes       int64
	translations int64
}

func (m *oracle) reset(tt *ttable.Table) {
	m.tt, m.idx, m.entries, m.nGhosts = tt, map[int32]int{}, nil, 0
}

func (m *oracle) hash(globals []int32, stamp Stamp) []int32 {
	var unknown []int32
	seen := map[int32]bool{}
	for _, g := range globals {
		if _, ok := m.idx[g]; !ok && !seen[g] {
			seen[g] = true
			unknown = append(unknown, g)
		}
	}
	m.probes += int64(len(globals))
	m.p.ComputeMem(6 * len(globals))
	if len(unknown) > 0 || m.tt.Kind() != ttable.Replicated {
		ents := m.tt.Dereference(m.p, unknown)
		for i, g := range unknown {
			e := Entry{global: g, Owner: ents[i].Owner, Offset: ents[i].Offset, Local: ents[i].Offset}
			if int(e.Owner) != m.p.Rank() {
				e.Local = int32(m.tt.NLocal(m.p.Rank()) + m.nGhosts)
				m.nGhosts++
			}
			m.idx[g] = len(m.entries)
			m.entries = append(m.entries, e)
		}
		m.translations += int64(len(unknown))
		m.p.ComputeMem(10 * len(unknown))
	}
	loc := make([]int32, len(globals))
	for i, g := range globals {
		e := &m.entries[m.idx[g]]
		e.stamps |= stamp
		loc[i] = e.Local
	}
	m.p.ComputeMem(2 * len(globals))
	return loc
}

func (m *oracle) clearStamp(stamp Stamp) {
	for i := range m.entries {
		m.entries[i].stamps &^= stamp
	}
	m.p.ComputeMem(len(m.entries))
}

func (m *oracle) sel(include, exclude Stamp) []Entry {
	var out []Entry // nil when empty, as SelectInto(nil, ...) returns
	for _, e := range m.entries {
		if e.stamps&include != 0 && e.stamps&exclude == 0 {
			out = append(out, e)
		}
	}
	m.p.ComputeMem(len(m.entries))
	return out
}

func (m *oracle) ghostGlobals() []int32 {
	out := []int32{}
	for _, e := range m.entries {
		if int(e.Owner) != m.p.Rank() {
			out = append(out, e.global)
		}
	}
	return out
}

// observation is what one step of the model test records on one rank.
type observation struct {
	Step                 string
	Dst                  []int32
	SelA, SelB, SelAB    []Entry
	SelAnotB             []Entry
	Ghosts               []int32
	NGhosts, Len         int
	Probes, Translations int64
	Clock                uint64
}

// modelSteps drives either the table (real) or the oracle through one
// random sequence of calls and records an observation after every call. The
// call sequence is the same on every rank (the Distributed and Paged tables
// dereference collectively); the references are each rank's own. A reset
// rebinds the table to the other of two translation tables: one of the
// kind under test over n elements, and a Replicated one over more.
func modelSteps(p *comm.Proc, kind ttable.Kind, n int, seed int64, real bool) []observation {
	owners := rand.New(rand.NewSource(seed + int64(p.Rank())))
	build := func(kind ttable.Kind, n int) *ttable.Table {
		slab := make([]int32, n*(p.Rank()+1)/p.Size()-n*p.Rank()/p.Size())
		for i := range slab {
			slab[i] = int32(owners.Intn(p.Size()))
		}
		return ttable.Build(p, kind, slab)
	}
	tt, other := build(kind, n), build(ttable.Replicated, n+700)
	var ht *Table
	var m *oracle
	if real {
		ht = New(p, tt)
	} else {
		m = &oracle{p: p}
		m.reset(tt)
	}
	ops := rand.New(rand.NewSource(seed))                         // shared: the call sequence
	refs := rand.New(rand.NewSource(seed*31 + int64(p.Rank()+1))) // per rank: the references
	var a, b Stamp
	newStamps := func() {
		if real {
			a, b = ht.NewStamp(), ht.NewStamp()
		} else {
			a, b = 1, 2
		}
	}
	newStamps()
	var obs []observation
	var dst []int32
	for step := 0; step < 40; step++ {
		var o observation
		switch op := ops.Intn(10); {
		case op < 6:
			// A random stream with duplicates: a window of the index space,
			// some of it revisited.
			stamp := a
			if ops.Intn(2) == 0 {
				stamp = b
			}
			cur := tt.N()
			lo, span := refs.Intn(cur), 1+refs.Intn(cur/2)
			gs := make([]int32, refs.Intn(3*span))
			for i := range gs {
				gs[i] = int32((lo + refs.Intn(span)) % cur)
			}
			o.Step = fmt.Sprintf("hash %d refs, stamp %b", len(gs), stamp)
			if real {
				dst = ht.HashInto(dst, gs, stamp)
				o.Dst = append([]int32{}, dst...)
			} else {
				o.Dst = m.hash(gs, stamp)
			}
		case op < 9:
			stamp := a
			if ops.Intn(2) == 0 {
				stamp = b
			}
			o.Step = fmt.Sprintf("clear stamp %b", stamp)
			if real {
				ht.ClearStamp(stamp)
			} else {
				m.clearStamp(stamp)
			}
		default:
			o.Step = "reset"
			tt, other = other, tt
			if real {
				ht.Reset(tt)
			} else {
				m.reset(tt)
			}
			newStamps()
		}
		if real {
			o.SelA, o.SelB = ht.SelectInto(nil, a, 0), ht.SelectInto(nil, b, 0)
			o.SelAB, o.SelAnotB = ht.SelectInto(nil, a|b, 0), ht.SelectInto(nil, a, b)
			o.Ghosts, o.NGhosts, o.Len = ht.GhostGlobals(), ht.NGhosts(), ht.Len()
			o.Probes, o.Translations = ht.probes, ht.translations
		} else {
			o.SelA, o.SelB = m.sel(a, 0), m.sel(b, 0)
			o.SelAB, o.SelAnotB = m.sel(a|b, 0), m.sel(a, b)
			o.Ghosts, o.NGhosts, o.Len = m.ghostGlobals(), m.nGhosts, len(m.entries)
			o.Probes, o.Translations = m.probes, m.translations
		}
		o.Clock = math.Float64bits(p.Clock())
		obs = append(obs, o)
	}
	return obs
}

// TestTableAgainstModel holds the table, call by call, to a map-based
// oracle on Replicated, Distributed and Paged translation tables at 1 and 3
// ranks: localized indices, selections (one stamp, the union, one stamp
// minus the other), ghost globals in slot order, ghost and entry counts, the
// Probes and Translations counters, and every rank's virtual clock, bit for
// bit, against the charge formula.
func TestTableAgainstModel(t *testing.T) {
	for _, kind := range []ttable.Kind{ttable.Replicated, ttable.Distributed, ttable.Paged} {
		for _, nprocs := range []int{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				const n = 2500 // more than two pages of a Paged table
				got := make([][]observation, nprocs)
				want := make([][]observation, nprocs)
				comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
					got[p.Rank()] = modelSteps(p, kind, n, seed, true)
				})
				comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
					want[p.Rank()] = modelSteps(p, kind, n, seed, false)
				})
				for r := range got {
					for i := range got[r] {
						if g, w := got[r][i], want[r][i]; !reflect.DeepEqual(g, w) {
							t.Fatalf("%v on %d ranks, seed %d, rank %d, step %d (%s):\n got  %s\n want %s",
								kind, nprocs, seed, r, i, w.Step, summary(g), summary(w))
						}
					}
				}
			}
		}
	}
}

func summary(o observation) string {
	return fmt.Sprintf("dst %d, sel %d/%d/%d/%d, ghosts %d (n=%d), len %d, probes %d, translations %d, clock %016x",
		len(o.Dst), len(o.SelA), len(o.SelB), len(o.SelAB), len(o.SelAnotB), len(o.Ghosts), o.NGhosts, o.Len, o.Probes, o.Translations, o.Clock)
}
