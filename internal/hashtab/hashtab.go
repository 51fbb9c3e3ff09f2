// Package hashtab implements the CHAOS inspector hash table (paper §3.2.2).
//
// Indirection arrays are hashed in with CHAOS_hash; each distinct global
// index gets one entry recording its translated address (owner, offset), the
// local buffer index assigned to it (the element's own offset if it is
// on-processor, or a ghost slot past the local section if off-processor),
// and a stamp bitmask identifying which indirection arrays referenced it.
//
// The table is the vehicle for the paper's two inspector optimizations:
//
//   - duplicate removal (software caching): each off-processor global is
//     fetched once no matter how many times it is referenced;
//   - index-analysis reuse: when an indirection array adapts, its stamp is
//     cleared and the new contents rehashed; indices already present need
//     only a probe and a stamp mark, not a translation-table dereference.
//
// The index is a custom open-addressing table rather than a Go map: slots
// are a power-of-two array of (key, entry index) pairs probed linearly, so
// the rehash loop that dominates adaptive inspector cost touches one cache
// line per probe and allocates nothing in steady state. The modeled
// memory-operation charges are per hashed index and per inserted entry,
// exactly as they were for the map-backed table, so virtual-time results
// are unchanged by the representation.
package hashtab

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/ttable"
)

// Stamp is a bitmask identifying one or more indirection arrays. Stamps
// combine with bitwise OR: a merged schedule over arrays a and b selects
// entries matching a|b.
type Stamp uint64

// Modeled memory-operation counts per hash-table action. Index analysis is
// expensive on the modeled machine (the paper calls this out explicitly in
// §3.2.2): a probe walks the bucket chain and compares keys, an insertion
// additionally allocates the entry and consults the translation table, and
// stamping rewrites the entry.
const (
	probeMemOps  = 6
	insertMemOps = 10
	stampMemOps  = 2
)

// Entry is one hash-table record.
type Entry struct {
	Global int32
	Owner  int32
	Offset int32
	// Local is the localized index: Offset when Owner is the calling
	// processor, or nLocal+ghostSlot otherwise.
	Local  int32
	Stamps Stamp
}

// slot is one open-addressing index cell: the global index inline with the
// position of its entry in the entries slice. ref < 0 marks an empty slot.
type slot struct {
	key int32
	ref int32
}

// minSlots is the smallest slot-array size (power of two).
const minSlots = 16

// Table is a per-processor inspector hash table bound to one translation
// table (one distribution). It is not safe for concurrent use.
type Table struct {
	p      *comm.Proc
	tt     *ttable.Table
	nLocal int

	// Open-addressing index over entries: power-of-two length, linear
	// probing, grown at 3/4 occupancy.
	slots     []slot
	mask      uint32
	entries   []Entry
	nGhosts   int
	nextStamp uint

	// Hash scratch, reused across calls so repeated adapt cycles
	// (ClearStamp/Reset + rehash) stop allocating once warm.
	unknown []int32
	ents    []ttable.Entry

	// Counters for ablation studies and tests.
	probes       int64 // hash probes performed
	translations int64 // dereferences that actually hit the translation table
}

// New creates an empty hash table for the distribution described by tt.
func New(p *comm.Proc, tt *ttable.Table) *Table {
	t := &Table{
		p:      p,
		tt:     tt,
		nLocal: tt.NLocal(p.Rank()),
	}
	t.initSlots(minSlots)
	return t
}

// initSlots resets the slot array to n empty cells (n a power of two).
func (t *Table) initSlots(n int) {
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
	} else {
		t.slots = make([]slot, n)
	}
	for i := range t.slots {
		t.slots[i].ref = -1
	}
	t.mask = uint32(n - 1)
}

// home returns the preferred slot for a key (Fibonacci hashing: the
// multiplicative constant spreads consecutive globals, the usual shape of
// indirection arrays, across the table).
func (t *Table) home(g int32) uint32 {
	return (uint32(g) * 2654435769) & t.mask
}

// probe walks the cluster for g. It returns the entry reference stored for
// g, or -1 with pos naming the empty slot where g would be inserted.
func (t *Table) probe(g int32) (pos uint32, ref int32) {
	pos = t.home(g)
	for {
		s := t.slots[pos]
		if s.ref < 0 {
			return pos, -1
		}
		if s.key == g {
			return pos, s.ref
		}
		pos = (pos + 1) & t.mask
	}
}

// grow doubles the slot array and reinserts every occupied cell. Keys are
// stored inline, so growth never touches the entries slice (which may hold
// fewer entries than live slots mid-Hash, when unknowns are pending).
func (t *Table) grow() {
	old := t.slots
	t.slots = nil // old aliases the live backing; initSlots must not reuse it
	t.initSlots(2 * len(old))
	for _, s := range old {
		if s.ref < 0 {
			continue
		}
		pos := t.home(s.key)
		for t.slots[pos].ref >= 0 {
			pos = (pos + 1) & t.mask
		}
		t.slots[pos] = s
	}
}

// Reset rebinds the table to a new translation table (a new distribution)
// and drops every cached entry, ghost slot and stamp. After a checkpoint
// restore or repartition the cached (owner, offset) translations are stale,
// so the inspector must rebuild from a clean table rather than reuse them.
// The slot array and entry storage are retained, so adapt cycles that reset
// and rehash similarly sized index sets do not regrow the table from
// scratch.
func (t *Table) Reset(tt *ttable.Table) {
	t.tt = tt
	t.nLocal = tt.NLocal(t.p.Rank())
	for i := range t.slots {
		t.slots[i].ref = -1
	}
	t.entries = t.entries[:0]
	t.nGhosts = 0
	t.nextStamp = 0
}

// NewStamp returns a fresh stamp bit. It panics after 64 stamps; use
// ClearStamp and reuse stamps in adaptive codes, as the paper does for the
// CHARMM non-bonded list.
func (t *Table) NewStamp() Stamp {
	if t.nextStamp >= 64 {
		panic("hashtab: more than 64 live stamps; reuse stamps via ClearStamp")
	}
	s := Stamp(1) << t.nextStamp
	t.nextStamp++
	return s
}

// NLocal returns the size of the local data section.
func (t *Table) NLocal() int { return t.nLocal }

// NGhosts returns the number of ghost slots assigned so far. A data buffer
// for an array under this table must have length NLocal()+NGhosts().
func (t *Table) NGhosts() int { return t.nGhosts }

// Len returns the number of distinct globals in the table.
func (t *Table) Len() int { return len(t.entries) }

// Probes returns the cumulative number of hash probes (for ablations).
func (t *Table) Probes() int64 { return t.probes }

// Translations returns how many entries required a translation-table
// dereference (i.e. were not already cached in the hash table).
func (t *Table) Translations() int64 { return t.translations }

// Hash enters the given global indices into the table (CHAOS_hash), marking
// each with stamp, and returns the localized index for each input position
// in a freshly allocated slice. Duplicate globals share one entry. For
// Distributed/Paged translation tables this is a collective call, because
// unknown indices must be dereferenced. Hot callers that rehash every adapt
// cycle should use HashInto with a retained buffer instead.
func (t *Table) Hash(globals []int32, stamp Stamp) []int32 {
	return t.HashInto(nil, globals, stamp)
}

// HashInto is Hash writing the localized indices into dst's backing array
// (grown as needed; dst may be nil, and may be globals itself to localize
// an array in place). Feeding the previous result back each adapt cycle
// makes steady-state rehashing allocation-free.
func (t *Table) HashInto(dst []int32, globals []int32, stamp Stamp) []int32 {
	if cap(dst) < len(globals) {
		dst = make([]int32, len(globals))
	}
	dst = dst[:len(globals)]

	// Pass 1: probe each reference once and park its entry reference in
	// dst. Unknown globals (each once) claim their slot immediately, with
	// entry references past the current end of the entries slice, so
	// in-stream duplicates resolve to the pending entry without a side
	// lookup structure. grow moves slots, never references, so a parked
	// reference stays valid across a mid-call growth. dst may alias globals:
	// position i is read before it is written.
	unknown := t.unknown[:0]
	for i, g := range globals {
		pos, ref := t.probe(g)
		if ref < 0 {
			// Keep occupancy (live entries + pending unknowns) <= 3/4.
			if 4*(len(t.entries)+len(unknown)+1) > 3*len(t.slots) {
				t.grow()
				pos, _ = t.probe(g)
			}
			ref = int32(len(t.entries) + len(unknown))
			t.slots[pos] = slot{key: g, ref: ref}
			unknown = append(unknown, g)
		}
		dst[i] = ref
	}
	t.unknown = unknown
	t.probes += int64(len(globals))
	t.p.ComputeMem(probeMemOps * len(globals))

	// Translate the unknowns and insert entries.
	if len(unknown) > 0 || t.tt.Kind() != ttable.Replicated {
		t.ents = t.tt.DereferenceInto(t.p, unknown, t.ents)
		for i, g := range unknown {
			e := Entry{Global: g, Owner: t.ents[i].Owner, Offset: t.ents[i].Offset}
			if int(e.Owner) == t.p.Rank() {
				e.Local = e.Offset
			} else {
				e.Local = int32(t.nLocal + t.nGhosts)
				t.nGhosts++
			}
			t.entries = append(t.entries, e)
		}
		t.translations += int64(len(unknown))
		t.p.ComputeMem(insertMemOps * len(unknown))
	}

	// Pass 2: mark stamps and swap each parked entry reference for its
	// localized index.
	for i, ref := range dst {
		e := &t.entries[ref]
		e.Stamps |= stamp
		dst[i] = e.Local
	}
	t.p.ComputeMem(stampMemOps * len(globals))
	return dst
}

// ClearStamp removes stamp from every entry. Entries whose stamp set becomes
// empty are kept: their translation and ghost slot remain cached so that
// rehashing a mostly unchanged indirection array is cheap (§3.2.2).
func (t *Table) ClearStamp(stamp Stamp) {
	for i := range t.entries {
		t.entries[i].Stamps &^= stamp
	}
	t.p.ComputeMem(len(t.entries))
}

// Select returns the entries e with (e.Stamps & include) != 0 and
// (e.Stamps & exclude) == 0, in insertion order (deterministic). Schedule
// construction uses this to build regular (include = one stamp), merged
// (include = union) and incremental (exclude = earlier stamps) schedules.
func (t *Table) Select(include, exclude Stamp) []Entry {
	return t.SelectInto(nil, include, exclude)
}

// SelectInto is Select appending into dst's backing array (dst may be nil).
// Callers that rebuild schedules every adapt cycle pass a retained scratch
// slice so selection allocates nothing in steady state.
func (t *Table) SelectInto(dst []Entry, include, exclude Stamp) []Entry {
	if include == 0 {
		panic("hashtab: Select with empty include mask")
	}
	dst = dst[:0]
	for _, e := range t.entries {
		if e.Stamps&include != 0 && e.Stamps&exclude == 0 {
			dst = append(dst, e)
		}
	}
	t.p.ComputeMem(len(t.entries))
	return dst
}

// GhostGlobals returns the global index assigned to each ghost slot, in
// slot order: GhostGlobals()[s] is the global stored at local index
// NLocal()+s.
func (t *Table) GhostGlobals() []int32 {
	out := make([]int32, t.nGhosts)
	for _, e := range t.entries {
		if int(e.Owner) != t.p.Rank() {
			out[int(e.Local)-t.nLocal] = e.Global
		}
	}
	return out
}

// Lookup returns the entry for a global index, if present.
func (t *Table) Lookup(g int32) (Entry, bool) {
	_, ref := t.probe(g)
	if ref < 0 {
		return Entry{}, false
	}
	return t.entries[ref], true
}

// String summarizes the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("hashtab{n=%d local=%d ghosts=%d}", len(t.entries), t.nLocal, t.nGhosts)
}
