// Package ttable implements CHAOS translation tables: the globally
// accessible structure that records, for every element of an irregularly
// distributed array, its home processor and local offset (paper §3.1).
//
// Three storage modes are provided, as in the paper: fully replicated,
// block-distributed (each processor stores the entries for one contiguous
// slab of global indices), and paged (fixed-size pages assigned round-robin
// to processors, fetched and cached on demand).
//
// Layout convention used throughout the repository: the local offset of a
// global element g on its owner is the number of elements with smaller
// global index owned by the same processor. Data remapping (internal/remap)
// places array elements following the same rule, so a translation table and
// the arrays it describes always agree.
package ttable

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/recycle"
)

// Kind selects the storage mode of a translation table.
type Kind int

// Translation table storage modes.
const (
	Replicated Kind = iota
	Distributed
	Paged
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Replicated:
		return "replicated"
	case Distributed:
		return "distributed"
	case Paged:
		return "paged"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Entry is one translation record: the owning processor and the local
// offset of a global array element.
type Entry struct {
	Owner  int32
	Offset int32
}

// defaultPageSize is the page granularity of Paged tables.
const defaultPageSize = 1024

// Table is a translation table for one irregular distribution. Tables are
// built collectively and Dereference on Distributed/Paged tables is a
// collective operation: all processors must call it together.
type Table struct {
	kind   Kind
	n      int
	nprocs int

	// blockStarts[r] is the first global index whose map-array entry
	// lives on processor r; blockStarts[nprocs] == n.
	blockStarts []int

	// counts[r] is the number of elements owned by processor r.
	counts []int32

	// Replicated storage: full arrays indexed by global index.
	owners  []int32
	offsets []int32

	// Distributed storage: entries for my block only.
	locOwners  []int32
	locOffsets []int32

	// Paged storage.
	pageSize  int
	homePages map[int][]Entry // pages this processor stores
	pageCache map[int][]Entry // pages fetched from other processors

	// Dereference scratch, reused across calls so the collective lookup
	// path stops allocating request/reply staging once warm. Requests are
	// grouped per peer back-to-back in one flat slice with a pointer array,
	// mirroring the CSR schedules downstream; the per-peer lists handed to
	// and returned by the all-to-all exchanges are kept too.
	drPtr   []int32   // per-peer request offsets (len nprocs+1)
	drReq   []int32   // request payloads, grouped by peer
	drWhere []int32   // input position of each request, grouped by peer
	drCur   []int32   // per-peer fill cursor
	drTo    [][]int32 // per-peer request lists (subslices of drReq)
	drIn    [][]int32 // requests received, per source
	drOut   [][]int32 // replies, per source
	drBack  [][]int32 // replies received, per home
	drNeed  []int32   // paged: sorted deduplicated missing-page list
}

// Build constructs a translation table collectively. myOwners[i] gives the
// owner of global element blockStart(rank)+i, i.e. the map array is assumed
// block-distributed across processors in rank order (the Fortran D
// convention for map arrays, Fig. 7). Every processor must pass its own
// slab; slabs may have different lengths.
func Build(p *comm.Proc, kind Kind, myOwners []int32) *Table {
	t := &Table{kind: kind, nprocs: p.Size(), pageSize: defaultPageSize}

	// Establish the block decomposition of the map array.
	sizes := p.AllGatherI64([]int64{int64(len(myOwners))})
	t.blockStarts = make([]int, p.Size()+1)
	for r, size := range sizes {
		t.blockStarts[r+1] = t.blockStarts[r] + int(size[0])
	}
	t.n = t.blockStarts[p.Size()]

	// Per-owner counts in my block, then an exclusive scan across
	// processors so each element's offset can be assigned locally.
	myCnt := make([]int64, p.Size())
	for _, o := range myOwners {
		if o < 0 || int(o) >= p.Size() {
			panic(fmt.Sprintf("ttable: owner %d out of range [0,%d)", o, p.Size()))
		}
		myCnt[o]++
	}
	p.ComputeMem(len(myOwners))
	before := make([]int32, p.Size())
	t.counts = make([]int32, p.Size())
	for r, cnt := range p.AllGatherI64(myCnt) {
		for o := 0; o < p.Size(); o++ {
			if r < p.Rank() {
				before[o] += int32(cnt[o])
			}
			t.counts[o] += int32(cnt[o])
		}
	}

	// Offsets for my block.
	myOffsets := make([]int32, len(myOwners))
	running := before
	for i, o := range myOwners {
		myOffsets[i] = running[o]
		running[o]++
	}
	p.ComputeMem(len(myOwners))

	switch kind {
	case Replicated:
		// The gathered map arrives in rank order, which is global order:
		// it is decoded straight into the tables.
		t.owners = p.AllGatherI32Into(nil, myOwners)
		t.offsets = p.AllGatherI32Into(nil, myOffsets)
	case Distributed:
		t.locOwners = append([]int32(nil), myOwners...)
		t.locOffsets = myOffsets
	case Paged:
		t.homePages = make(map[int][]Entry)
		t.pageCache = make(map[int][]Entry)
		t.distributePages(p, myOwners, myOffsets)
	default:
		panic(fmt.Sprintf("ttable: unknown kind %v", kind))
	}
	return t
}

// distributePages ships (owner, offset) entries from the block layout to the
// round-robin page layout.
func (t *Table) distributePages(p *comm.Proc, myOwners, myOffsets []int32) {
	lo := t.blockStarts[p.Rank()]
	// Records per destination: global, owner, offset triples.
	out := make([][]int32, p.Size())
	for i := range myOwners {
		g := lo + i
		dst := (g / t.pageSize) % p.Size()
		out[dst] = append(out[dst], int32(g), myOwners[i], myOffsets[i])
	}
	p.ComputeMem(len(myOwners))
	for _, recs := range p.AllToAllI32(out, nil) {
		for i := 0; i+2 < len(recs); i += 3 {
			g := int(recs[i])
			page := g / t.pageSize
			ents := t.homePages[page]
			if ents == nil {
				size := t.pageSize
				if (page+1)*t.pageSize > t.n {
					size = t.n - page*t.pageSize
				}
				ents = make([]Entry, size)
				t.homePages[page] = ents
			}
			ents[g%t.pageSize] = Entry{Owner: recs[i+1], Offset: recs[i+2]}
		}
	}
}

// Kind returns the storage mode.
func (t *Table) Kind() Kind { return t.kind }

// N returns the global array length.
func (t *Table) N() int { return t.n }

// NLocal returns the number of elements owned by rank r.
func (t *Table) NLocal(r int) int { return int(t.counts[r]) }

// blockOf returns the processor storing the map-array entry for global g.
func (t *Table) blockOf(g int) int {
	return sort.SearchInts(t.blockStarts[1:], g+1)
}

// Dereference translates global indices to (owner, offset) entries. For
// Replicated tables this is purely local; for Distributed and Paged tables
// it is a collective call (every processor must participate, possibly with
// an empty request list). The result is freshly allocated; hot callers
// should use DereferenceInto with a retained buffer.
func (t *Table) Dereference(p *comm.Proc, globals []int32) []Entry {
	return t.DereferenceInto(p, globals, nil)
}

// DereferenceInto is Dereference writing into dst's backing array (grown as
// needed; dst may be nil). The inspector calls it every adapt cycle with
// table-owned scratch, so steady-state rehashing does not allocate here.
func (t *Table) DereferenceInto(p *comm.Proc, globals []int32, dst []Entry) []Entry {
	for _, g := range globals {
		if g < 0 || int(g) >= t.n {
			panic(fmt.Sprintf("ttable: global index %d out of range [0,%d)", g, t.n))
		}
	}
	if cap(dst) < len(globals) {
		dst = make([]Entry, len(globals))
	}
	dst = dst[:len(globals)]
	switch t.kind {
	case Replicated:
		for i, g := range globals {
			dst[i] = Entry{Owner: t.owners[g], Offset: t.offsets[g]}
		}
		p.ComputeMem(len(globals))
		return dst
	case Distributed:
		return t.derefDistributed(p, globals, dst)
	case Paged:
		return t.derefPaged(p, globals, dst)
	default:
		panic("ttable: bad kind")
	}
}

// derefDistributed resolves lookups with a request/reply all-to-all
// exchange: each global is asked of the rank whose block holds it.
func (t *Table) derefDistributed(p *comm.Proc, globals []int32, out []Entry) []Entry {
	lo := t.blockStarts[p.Rank()]
	p.ComputeMem(len(globals))
	incoming := t.route(p, globals, func(g int32) int { return t.blockOf(int(g)) })

	// Answer incoming requests from the local slab, one reply list per
	// source.
	t.drOut = recycle.Sized(t.drOut, p.Size())
	replies := t.drOut
	for r, qs := range incoming {
		ans := recycle.Sized(replies[r], 2*len(qs))
		for k, g := range qs {
			i := int(g) - lo
			ans[2*k] = t.locOwners[i]
			ans[2*k+1] = t.locOffsets[i]
		}
		p.ComputeMem(len(qs))
		replies[r] = ans
	}
	answered := p.AllToAllI32(replies, t.drBack)
	t.drBack = answered

	for r, ans := range answered {
		for k, w := range t.drWhere[t.drPtr[r]:t.drPtr[r+1]] {
			out[w] = Entry{Owner: ans[2*k], Offset: ans[2*k+1]}
		}
	}
	return out
}

// route groups keys per home rank in flat table-owned scratch — count,
// prefix-sum, then fill, each home's keys in input order — and sends every
// rank its group in one all-to-all, returning the keys each rank sent
// here. The grouping stays in drPtr and drWhere: home r's keys came from
// input positions drWhere[drPtr[r]:drPtr[r+1]].
func (t *Table) route(p *comm.Proc, keys []int32, home func(int32) int) [][]int32 {
	t.drPtr = recycle.Sized(t.drPtr, p.Size()+1)
	ptr := t.drPtr
	clear(ptr)
	for _, k := range keys {
		ptr[home(k)+1]++
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	t.drReq = recycle.Sized(t.drReq, len(keys))
	t.drWhere = recycle.Sized(t.drWhere, len(keys))
	t.drCur = recycle.Sized(t.drCur, p.Size())
	req, where, fill := t.drReq, t.drWhere, t.drCur
	clear(fill) // the fill below writes every slot of req and where
	for i, k := range keys {
		h := home(k)
		j := ptr[h] + fill[h]
		fill[h]++
		req[j], where[j] = k, int32(i)
	}
	t.drTo = recycle.Sized(t.drTo, p.Size())
	for r := range t.drTo {
		t.drTo[r] = req[ptr[r]:ptr[r+1]]
	}
	t.drIn = p.AllToAllI32(t.drTo, t.drIn)
	return t.drIn
}

// derefPaged fetches any missing pages from their home processors, caches
// them, then resolves locally. The missing-page set is a sorted flat list
// (table-owned scratch), not a map.
func (t *Table) derefPaged(p *comm.Proc, globals []int32, out []Entry) []Entry {
	// Determine missing pages: collect, sort, deduplicate.
	need := t.drNeed[:0]
	for _, g := range globals {
		page := int(g) / t.pageSize
		if _, ok := t.pageCache[page]; ok {
			continue
		}
		if _, ok := t.homePages[page]; ok && (page%p.Size()) == p.Rank() {
			continue
		}
		need = append(need, int32(page))
	}
	sort.Slice(need, func(i, j int) bool { return need[i] < need[j] })
	w := 0
	for i, pg := range need {
		if i == 0 || pg != need[i-1] {
			need[w] = pg
			w++
		}
	}
	need = need[:w]
	t.drNeed = need
	p.ComputeMem(len(globals))

	// Each home's request list is ascending: need is sorted.
	size := p.Size()
	incoming := t.route(p, need, func(pg int32) int { return int(pg) % size })

	// Serve pages: reply is a sequence of (page, size, owner..., offset...).
	t.drOut = recycle.Sized(t.drOut, p.Size())
	replies := t.drOut
	for r, pgs := range incoming {
		n := 0
		for _, pg := range pgs {
			n += 2 + 2*len(t.homePages[int(pg)])
		}
		rep := recycle.Sized(replies[r], n)[:0]
		for _, pg := range pgs {
			ents := t.homePages[int(pg)]
			rep = append(rep, pg, int32(len(ents)))
			for _, e := range ents {
				rep = append(rep, e.Owner)
			}
			for _, e := range ents {
				rep = append(rep, e.Offset)
			}
		}
		replies[r] = rep
	}
	served := p.AllToAllI32(replies, t.drBack)
	t.drBack = served
	for _, recs := range served {
		for i := 0; i < len(recs); {
			page := int(recs[i])
			size := int(recs[i+1])
			i += 2
			ents := make([]Entry, size)
			for k := 0; k < size; k++ {
				ents[k] = Entry{Owner: recs[i+k], Offset: recs[i+size+k]}
			}
			i += 2 * size
			t.pageCache[page] = ents
		}
	}

	for i, g := range globals {
		page := int(g) / t.pageSize
		ents, ok := t.pageCache[page]
		if !ok {
			ents = t.homePages[page]
		}
		out[i] = ents[int(g)%t.pageSize]
	}
	p.ComputeMem(len(globals))
	return out
}

// OwnerOf returns the owner of global g. Only valid for Replicated tables;
// other kinds require the collective Dereference.
func (t *Table) OwnerOf(g int) int32 {
	if t.kind != Replicated {
		panic("ttable: OwnerOf requires a replicated table")
	}
	return t.owners[g]
}

// OffsetOf returns the local offset of global g on its owner. Only valid
// for Replicated tables.
func (t *Table) OffsetOf(g int) int32 {
	if t.kind != Replicated {
		panic("ttable: OffsetOf requires a replicated table")
	}
	return t.offsets[g]
}
