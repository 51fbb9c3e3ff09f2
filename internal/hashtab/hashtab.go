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
// line per probe and allocates nothing in steady state. The entry records
// are stored as columns indexed by entry reference — global, owner, offset,
// local and stamps — and an Entry is assembled only for the callers that
// ask for one (SelectInto, Lookup). With a Replicated translation table —
// which already holds every global's translation on every rank — the table
// also keeps a directory of N localized indices and N "stamped this call"
// bits: the first reference of a global in a HashInto probes the slots and
// inserts (translating at once) or stamps its entry, and every repeat reads
// one bit and one 4-byte directory cell, so the hash is one pass over the
// references. The Distributed and Paged tables dereference collectively, so
// there the unknowns are parked and translated together between two passes,
// and a reference touches one slot and the local and stamps columns. The
// modeled memory-operation charges are per
// hashed index and per inserted entry, exactly as they were for the
// map-backed table, so virtual-time results are unchanged by the
// representation.
package hashtab

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/recycle"
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
	global int32
	Owner  int32
	Offset int32
	// Local is the localized index: Offset when Owner is the calling
	// processor, or nLocal+ghostSlot otherwise.
	Local  int32
	stamps Stamp
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
	slots []slot
	mask  uint32
	// For a Replicated translation table only (which already holds every
	// global's translation on every rank): dir[g] is the localized index of
	// global g, -1 if g has no entry, and marked has bit g set once the
	// current HashInto has stamped g's entry.
	dir    []int32
	marked []uint64
	// The entries, as columns indexed by entry reference (see Entry).
	global, owner, offset, local []int32
	stamps                       []Stamp
	nGhosts                      int
	nextStamp                    uint

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
	t.bindDir()
	return t
}

// bindDir sizes the directory and the marked bits for a Replicated
// translation table; a grown directory's new cells are empty.
func (t *Table) bindDir() {
	n := t.tt.N()
	if t.tt.Kind() != ttable.Replicated || len(t.dir) >= n {
		return
	}
	dir := make([]int32, n)
	copy(dir, t.dir)
	for g := len(t.dir); g < n; g++ {
		dir[g] = -1
	}
	t.dir, t.marked = dir, make([]uint64, (n+63)/64)
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
// stored inline, so growth never touches the entry columns (which may hold
// fewer entries than live slots mid-Hash, when unknowns are pending).
func (t *Table) grow() { t.growTo(2 * len(t.slots)) }

// growTo grows the slot array to n cells (a power of two larger than it)
// and reinserts every occupied cell.
func (t *Table) growTo(n int) {
	old := t.slots
	t.slots = nil // old aliases the live backing; initSlots must not reuse it
	t.initSlots(n)
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
	if t.tt.Kind() == ttable.Replicated {
		for _, g := range t.global {
			t.dir[g] = -1
		}
	}
	t.tt = tt
	t.nLocal = tt.NLocal(t.p.Rank())
	t.bindDir()
	for i := range t.slots {
		t.slots[i].ref = -1
	}
	t.global, t.owner, t.offset, t.local = t.global[:0], t.owner[:0], t.offset[:0], t.local[:0]
	t.stamps = t.stamps[:0]
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
func (t *Table) Len() int { return len(t.global) }

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
// (dst may be nil, and may be globals itself to localize an array in place).
// A dst too short is replaced under recycle.Sized's rule, with 1/8 headroom,
// so feeding the previous result back each adapt cycle makes steady-state
// rehashing allocation-free even while the list grows a little per cycle.
func (t *Table) HashInto(dst []int32, globals []int32, stamp Stamp) []int32 {
	dst = recycle.Sized(dst, len(globals))
	if t.tt.Kind() == ttable.Replicated {
		return t.hashReplicated(dst, globals, stamp)
	}

	// Pass 1: probe each reference once and park its entry reference in
	// dst. Unknown globals (each once) claim their slot immediately, with
	// entry references past the current end of the entries, so in-stream
	// duplicates resolve to the pending entry without a side lookup
	// structure. grow moves slots, never references, so a parked reference
	// stays valid across a mid-call growth. dst may alias globals: position
	// i is read before it is written.
	unknown := t.unknown[:0]
	for i, g := range globals {
		pos, ref := t.probe(g)
		if ref < 0 {
			// Keep occupancy (live entries + pending unknowns) <= 3/4.
			if 4*(t.Len()+len(unknown)+1) > 3*len(t.slots) {
				t.grow()
				pos, _ = t.probe(g)
			}
			ref = int32(t.Len() + len(unknown))
			t.slots[pos] = slot{key: g, ref: ref}
			unknown = append(unknown, g)
		}
		dst[i] = ref
	}
	t.unknown = unknown
	t.probes += int64(len(globals))
	t.p.ComputeMem(probeMemOps * len(globals))

	// Translate the unknowns (collectively) and insert entries.
	t.ents = t.tt.DereferenceInto(t.p, unknown, t.ents)
	for i, g := range unknown {
		t.insert(g, t.ents[i].Owner, t.ents[i].Offset)
	}
	t.translations += int64(len(unknown))
	t.p.ComputeMem(insertMemOps * len(unknown))

	// Pass 2: mark stamps and swap each parked entry reference for its
	// localized index.
	for i, ref := range dst {
		dst[i] = t.mark(ref, stamp)
	}
	t.p.ComputeMem(stampMemOps * len(globals))
	return dst
}

// hashReplicated is HashInto over a Replicated translation table, in one
// pass: an unknown global is translated locally as it is inserted, so every
// reference resolves to its localized index at once. Only a global's first
// reference of the call probes the slots (inserting or stamping its entry);
// every later one reads a bit and the directory. The charges are the
// two-pass form's, in its order — the probes, then for the unknowns the
// table lookup DereferenceInto charges and the insertions, then the stamps.
func (t *Table) hashReplicated(dst, globals []int32, stamp Stamp) []int32 {
	t.reserve(len(globals))
	before := t.Len()
	n, dir, marked := uint32(t.tt.N()), t.dir, t.marked[:(t.tt.N()+63)/64]
	clear(marked)
	for i, g := range globals {
		if uint32(g) >= n {
			panic(fmt.Sprintf("ttable: global index %d out of range [0,%d)", g, n))
		}
		if w, b := g>>6, uint64(1)<<(g&63); marked[w]&b == 0 {
			marked[w] |= b
			pos, ref := t.probe(g)
			if ref < 0 {
				if 4*(t.Len()+1) > 3*len(t.slots) {
					t.grow()
					pos, _ = t.probe(g)
				}
				ref = int32(t.Len())
				t.slots[pos] = slot{key: g, ref: ref}
				t.insert(g, t.tt.OwnerOf(int(g)), t.tt.OffsetOf(int(g)))
				dir[g] = t.local[ref]
			}
			t.stamps[ref] |= stamp
		}
		dst[i] = dir[g]
	}
	t.probes += int64(len(globals))
	t.p.ComputeMem(probeMemOps * len(globals))
	if added := t.Len() - before; added > 0 {
		t.p.ComputeMem(added)
		t.translations += int64(added)
		t.p.ComputeMem(insertMemOps * added)
	}
	t.p.ComputeMem(stampMemOps * len(globals))
	return dst
}

// reserve readies a Replicated table for a HashInto of k references: they
// add at most min(N, Len+k) - Len entries, so the entry columns grow once to
// hold that many and the slot array to keep them under 3/4 occupancy, where
// appending and doubling would reallocate both a dozen times over as a cold
// table fills.
func (t *Table) reserve(k int) {
	need := min(t.tt.N(), t.Len()+k)
	more := need - t.Len()
	t.global = slices.Grow(t.global, more)
	t.owner = slices.Grow(t.owner, more)
	t.offset = slices.Grow(t.offset, more)
	t.local = slices.Grow(t.local, more)
	t.stamps = slices.Grow(t.stamps, more)
	n := len(t.slots)
	for 4*need > 3*n {
		n *= 2
	}
	if n > len(t.slots) {
		t.growTo(n)
	}
}

// insert appends the entry for a translated global: its local index is its
// offset if this processor owns it, else the next ghost slot.
func (t *Table) insert(g, owner, offset int32) {
	local := offset
	if int(owner) != t.p.Rank() {
		local = int32(t.nLocal + t.nGhosts)
		t.nGhosts++
	}
	t.global = append(t.global, g)
	t.owner = append(t.owner, owner)
	t.offset = append(t.offset, offset)
	t.local = append(t.local, local)
	t.stamps = append(t.stamps, 0)
}

// mark adds stamp to entry ref, writing the stamp word only when a bit is
// missing, and returns the entry's localized index.
func (t *Table) mark(ref int32, stamp Stamp) int32 {
	if st := t.stamps[ref]; st|stamp != st {
		t.stamps[ref] = st | stamp
	}
	return t.local[ref]
}

// entry assembles the record of entry ref.
func (t *Table) entry(ref int) Entry {
	return Entry{global: t.global[ref], Owner: t.owner[ref], Offset: t.offset[ref], Local: t.local[ref], stamps: t.stamps[ref]}
}

// ClearStamp removes stamp from every entry. Entries whose stamp set becomes
// empty are kept: their translation and ghost slot remain cached so that
// rehashing a mostly unchanged indirection array is cheap (§3.2.2).
func (t *Table) ClearStamp(stamp Stamp) {
	for i := range t.stamps {
		t.stamps[i] &^= stamp
	}
	t.p.ComputeMem(t.Len())
}

// SelectInto appends to dst's backing array (dst may be nil) the entries e
// with (e.stamps & include) != 0 and (e.stamps & exclude) == 0, in
// insertion order (deterministic). Schedule construction uses this to build
// regular (include = one stamp), merged (include = union) and incremental
// (exclude = earlier stamps) schedules; callers that rebuild schedules
// every adapt cycle pass a retained scratch slice so selection allocates
// nothing in steady state.
func (t *Table) SelectInto(dst []Entry, include, exclude Stamp) []Entry {
	if include == 0 {
		panic("hashtab: Select with empty include mask")
	}
	dst = dst[:0]
	for ref, st := range t.stamps {
		if st&include != 0 && st&exclude == 0 {
			// At the first match, make room for every entry left, so the
			// result is allocated at most once (and not at all when nothing
			// matches).
			if len(dst) == 0 {
				dst = slices.Grow(dst, t.Len()-ref)
			}
			dst = append(dst, t.entry(ref))
		}
	}
	t.p.ComputeMem(t.Len())
	return dst
}

// GhostGlobals returns the global index assigned to each ghost slot, in
// slot order: GhostGlobals()[s] is the global stored at local index
// NLocal()+s. Ghost slots are numbered in insertion order.
func (t *Table) GhostGlobals() []int32 {
	out := make([]int32, 0, t.nGhosts)
	for ref, o := range t.owner {
		if int(o) != t.p.Rank() {
			out = append(out, t.global[ref])
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
	return t.entry(int(ref)), true
}

// String summarizes the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("hashtab{n=%d local=%d ghosts=%d translations=%d}", t.Len(), t.nLocal, t.nGhosts, t.translations)
}
