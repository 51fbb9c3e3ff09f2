// Package remap implements CHAOS data and iteration remapping (paper
// phases B and D, §3.1).
//
// A Plan is the reusable product of the CHAOS `remap` procedure: an
// optimized communication schedule for moving every element of an array
// from its current (arbitrary) distribution to a newly computed irregular
// distribution. Once built, a Plan moves any number of identically
// distributed arrays (coordinates, velocities, weights, indirection
// arrays, CSR-shaped structures) without further index analysis.
//
// The package also provides iteration partitioning under the
// owner-computes and almost-owner-computes rules, and BlockMap, which
// converts a partitioner's per-local-element owner assignment into the
// block-distributed map array that translation-table construction expects.
package remap

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/recycle"
	"repro/internal/ttable"
)

// Point-to-point tag for plan data movement.
const tagRemap = 110

// BlockMap routes (global, owner) pairs to the block home of each global
// and returns this processor's slab of the resulting map array. globals
// lists the globals this processor currently holds (in any order), owners
// their newly assigned owners, and n the global array length. Collective.
func BlockMap(p *comm.Proc, globals, owners []int32, n int) []int32 {
	if len(globals) != len(owners) {
		panic(fmt.Sprintf("remap: %d globals but %d owners", len(globals), len(owners)))
	}
	// Count the records per home, then write each (global, owner) record
	// straight into its home's section of one flat wire buffer: within a
	// home the records keep the order of globals. Appending to the empty
	// slice at the write offset encodes in place (flat has the capacity).
	size := p.Size()
	at := make([]int, size+1) // at[r] becomes home r's write offset
	for _, g := range globals {
		at[partition.BlockOwner(int(g), n, size)+1] += 8
	}
	flat := make([]byte, 8*len(globals))
	bufs := make([][]byte, size)
	for r := 0; r < size; r++ {
		at[r+1] += at[r]
		bufs[r] = flat[at[r]:at[r+1]:at[r+1]]
	}
	for i, g := range globals {
		home := partition.BlockOwner(int(g), n, size)
		rec := [2]int32{g, owners[i]}
		comm.AppendI32(flat[at[home]:at[home]], rec[:])
		at[home] += 8
	}
	p.ComputeMem(len(globals))
	lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
	slab := make([]int32, hi-lo)
	filled := make([]bool, hi-lo)
	for _, b := range p.AllToAll(bufs) {
		recs := comm.DecodeI32(b)
		for i := 0; i+1 < len(recs); i += 2 {
			g := int(recs[i])
			if g < lo || g >= hi {
				panic(fmt.Sprintf("remap: global %d routed to wrong block [%d,%d)", g, lo, hi))
			}
			slab[g-lo] = recs[i+1]
			filled[g-lo] = true
		}
	}
	for i, ok := range filled {
		if !ok {
			panic(fmt.Sprintf("remap: no owner received for global %d", lo+i))
		}
	}
	p.ComputeMem(hi - lo)
	return slab
}

// Plan is a reusable remap schedule: it moves arrays laid out according to
// the source distribution (this processor's `globals` in local order) into
// the layout of a destination translation table.
type Plan struct {
	nprocs int
	// sendIdx backs the per-destination lists of local indices whose
	// elements go to each rank: the list for rank r is
	// sendIdx[sendPtr[r]:sendPtr[r+1]] (flat CSR, like the schedules).
	sendIdx []int32
	sendPtr []int32
	// placeOff backs the per-source lists of destination offsets for
	// arriving elements: the list for rank r is
	// placeOff[placePtr[r]:placePtr[r+1]].
	placeOff []int32
	placePtr []int32
	// keepIdx/keepOff move elements that stay on this processor.
	keepIdx []int32
	keepOff []int32
	// newLen is the local length under the destination distribution.
	newLen int

	// Working storage, reused across Move calls and — through NewPlanInto —
	// across plans, so an adaptive run sizes it once rather than at every
	// repartition. stageF/stageI are pack/unpack staging (wire bytes go
	// through the Proc send arena: SendF64Buf and friends copy, so the
	// staging is free again when the send returns); lens/newLens are
	// MoveCSRInto's segment lengths under the source and destination
	// layouts; ents, offOut and cur are NewPlanInto's build scratch.
	stageF        []float64
	stageI        []int32
	lens, newLens []int32
	ents          []ttable.Entry
	offOut, cur   []int32
}

// NewPlan builds a remap plan. globals[i] is the global index of this
// processor's i-th local element under the current distribution; dst
// describes the new distribution. Collective.
func NewPlan(p *comm.Proc, globals []int32, dst *ttable.Table) *Plan {
	return NewPlanInto(nil, p, globals, dst)
}

// NewPlanInto is NewPlan rebuilding pl in place (pl may be nil): the index
// lists and the move staging keep their storage, so a code that repartitions
// every adapt cycle and passes the previous plan back stops allocating them.
// The plan pl described before the call is gone. Collective.
func NewPlanInto(pl *Plan, p *comm.Proc, globals []int32, dst *ttable.Table) *Plan {
	if pl == nil {
		pl = &Plan{}
	}
	np, me := p.Size(), p.Rank()
	pl.ents = dst.DereferenceInto(p, globals, pl.ents)
	pl.nprocs, pl.newLen = np, dst.NLocal(me)
	// Route (destOffset) per destination; local stays in keep lists. The
	// per-destination lists are built flat: count, prefix-sum, fill.
	pl.sendPtr = recycle.Sized(pl.sendPtr, np+1)
	clear(pl.sendPtr)
	for _, e := range pl.ents {
		if int(e.Owner) != me {
			pl.sendPtr[e.Owner+1]++
		}
	}
	for r := 0; r < np; r++ {
		pl.sendPtr[r+1] += pl.sendPtr[r]
	}
	nSend := int(pl.sendPtr[np])
	pl.sendIdx = recycle.Sized(pl.sendIdx, nSend)
	pl.offOut = recycle.Sized(pl.offOut, nSend)
	pl.cur = recycle.Sized(pl.cur, np)
	clear(pl.cur)
	pl.keepIdx, pl.keepOff = pl.keepIdx[:0], pl.keepOff[:0]
	for i, e := range pl.ents {
		if int(e.Owner) == me {
			pl.keepIdx = append(pl.keepIdx, int32(i))
			pl.keepOff = append(pl.keepOff, e.Offset)
			continue
		}
		k := pl.sendPtr[e.Owner] + pl.cur[e.Owner]
		pl.cur[e.Owner]++
		pl.sendIdx[k] = int32(i)
		pl.offOut[k] = e.Offset
	}
	p.ComputeMem(len(globals))
	// The encoded offsets are handed to AllToAll as raw bytes, which a
	// by-reference transport lets the receivers alias: always fresh.
	bufs := make([][]byte, np)
	flat := make([]byte, 0, 4*nSend)
	for r := 0; r < np; r++ {
		start := len(flat)
		flat = comm.AppendI32(flat, pl.offOut[pl.sendPtr[r]:pl.sendPtr[r+1]])
		bufs[r] = flat[start:len(flat):len(flat)]
	}
	in := p.AllToAll(bufs)
	nPlace := 0
	for r, b := range in {
		if r != me {
			nPlace += len(b) / 4
		}
	}
	pl.placeOff = recycle.Sized(pl.placeOff, nPlace)
	pl.placePtr = recycle.Sized(pl.placePtr, np+1)
	pl.placePtr[0] = 0
	for r, b := range in {
		at := pl.placePtr[r]
		if r != me {
			at += int32(len(comm.DecodeI32Into(pl.placeOff[at:at], b)))
		}
		pl.placePtr[r+1] = at
	}
	return pl
}

// sendTo returns the local indices sent to rank r (aliases plan storage).
func (pl *Plan) sendTo(r int) []int32 { return pl.sendIdx[pl.sendPtr[r]:pl.sendPtr[r+1]] }

// placeFrom returns the destination offsets for elements arriving from rank
// r (aliases plan storage).
func (pl *Plan) placeFrom(r int) []int32 { return pl.placeOff[pl.placePtr[r]:pl.placePtr[r+1]] }

// NewLen returns the local array length under the destination distribution.
func (pl *Plan) NewLen() int { return pl.newLen }

// MovedAway returns how many local elements leave this processor.
func (pl *Plan) MovedAway() int { return len(pl.sendIdx) }

// MoveF64 relocates a float64 array (width components per element) from the
// source layout to the destination layout, into a freshly allocated array.
// Collective.
func (pl *Plan) MoveF64(p *comm.Proc, old []float64, width int) []float64 {
	return pl.MoveF64Into(nil, p, old, width)
}

// MoveF64Into is MoveF64 writing the destination layout into dst's backing
// array (grown as needed; dst may be nil but must not alias old). Every
// destination element is written, so dst's old contents do not matter: an
// adaptive code ping-pongs two arrays, handing the one the previous move
// consumed back as the next destination. Collective.
func (pl *Plan) MoveF64Into(dst []float64, p *comm.Proc, old []float64, width int) []float64 {
	out := moveInto(pl, dst, p, old, width, &pl.stageF, (*comm.Proc).SendF64Buf, (*comm.Proc).RecvF64Into)
	recycle.PoisonF64(pl.stageF)
	return out
}

// MoveI32 relocates an int32 array (width components per element), e.g.
// indirection arrays whose values are global indices and travel unchanged.
// Collective.
func (pl *Plan) MoveI32(p *comm.Proc, old []int32, width int) []int32 {
	return pl.MoveI32Into(nil, p, old, width)
}

// MoveI32Into is MoveI32 writing into dst's backing array, under
// MoveF64Into's rules. Collective.
func (pl *Plan) MoveI32Into(dst []int32, p *comm.Proc, old []int32, width int) []int32 {
	out := moveInto(pl, dst, p, old, width, &pl.stageI, (*comm.Proc).SendI32Buf, (*comm.Proc).RecvI32Into)
	recycle.PoisonI32(pl.stageI)
	return out
}

// moveInto is the fixed-width move, written once over the element type:
// copy the elements that stay, pack and send one message per destination,
// then place each arriving message at the offsets the plan recorded. stage
// is the plan's staging of that type; send must copy (the staging is reused
// for the next destination) and recv decodes into the buffer it is given.
func moveInto[T any](pl *Plan, dst []T, p *comm.Proc, old []T, width int, stage *[]T,
	send func(p *comm.Proc, to, tag int, xs []T), recv func(p *comm.Proc, from, tag int, dst []T) []T) []T {
	out := recycle.Sized(dst, pl.newLen*width)
	for k, li := range pl.keepIdx {
		copy(out[int(pl.keepOff[k])*width:], old[int(li)*width:int(li+1)*width])
	}
	p.ComputeMem(len(pl.keepIdx) * width)
	for k := 1; k < p.Size(); k++ {
		to := (p.Rank() + k) % p.Size()
		idx := pl.sendTo(to)
		if len(idx) == 0 {
			continue
		}
		*stage = recycle.Sized(*stage, len(idx)*width)
		buf := *stage
		for i, li := range idx {
			copy(buf[i*width:], old[int(li)*width:int(li+1)*width])
		}
		p.ComputeMem(len(buf))
		send(p, to, tagRemap, buf)
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		offs := pl.placeFrom(src)
		if len(offs) == 0 {
			continue
		}
		vals := recv(p, src, tagRemap, *stage)
		*stage = vals
		if len(vals) != len(offs)*width {
			panic(fmt.Sprintf("remap: from %d got %d values, want %d", src, len(vals), len(offs)*width))
		}
		for i, off := range offs {
			copy(out[int(off)*width:], vals[i*width:(i+1)*width])
		}
		p.ComputeMem(len(vals))
	}
	return out
}

// MoveCSRInto relocates a CSR-shaped structure: element i of the source
// layout owns the variable-length segment values[ptr[i]:ptr[i+1]]. The
// destination-layout (ptr, values) pair is written into the backing arrays
// of dstPtr and dstValues (grown as needed; either may be nil for a fresh
// allocation, neither may alias ptr or values). Used to remap the CHARMM
// non-bonded lists, where each atom carries its partner list. Collective.
func (pl *Plan) MoveCSRInto(dstPtr, dstValues []int32, p *comm.Proc, ptr []int32, values []int32) ([]int32, []int32) {
	if len(ptr) == 0 {
		// A rank holding no elements may pass a nil CSR; normalize to the
		// zero-row form so len(ptr)-1 below stays non-negative.
		ptr = []int32{0}
	}
	// First move the segment lengths as a width-1 int array.
	pl.lens = recycle.Sized(pl.lens, len(ptr)-1)
	for i := range pl.lens {
		pl.lens[i] = ptr[i+1] - ptr[i]
	}
	pl.newLens = pl.MoveI32Into(pl.newLens, p, pl.lens, 1)
	newLens := pl.newLens
	newPtr := recycle.Sized(dstPtr, pl.newLen+1)
	newPtr[0] = 0
	for i, l := range newLens {
		newPtr[i+1] = newPtr[i] + l
	}
	p.ComputeMem(pl.newLen)

	// Then move the segments themselves with per-destination packing.
	newValues := recycle.Sized(dstValues, int(newPtr[pl.newLen]))
	for k, src := range pl.keepIdx {
		copy(newValues[newPtr[pl.keepOff[k]]:], values[ptr[src]:ptr[src+1]])
	}
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		idx := pl.sendTo(dst)
		if len(idx) == 0 {
			continue
		}
		n := 0
		for _, li := range idx {
			n += int(pl.lens[li])
		}
		pl.stageI = recycle.Sized(pl.stageI, n)
		buf := pl.stageI[:0]
		for _, li := range idx {
			buf = append(buf, values[ptr[li]:ptr[li+1]]...)
		}
		p.ComputeMem(len(buf))
		p.SendI32Buf(dst, tagRemap, buf)
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		offs := pl.placeFrom(src)
		if len(offs) == 0 {
			continue
		}
		vals := p.RecvI32Into(src, tagRemap, pl.stageI)
		pl.stageI = vals
		pos := 0
		for _, off := range offs {
			l := int(newLens[off])
			copy(newValues[newPtr[off]:], vals[pos:pos+l])
			pos += l
		}
		if pos != len(vals) {
			panic(fmt.Sprintf("remap: CSR from %d got %d values, consumed %d", src, len(vals), pos))
		}
		p.ComputeMem(len(vals))
	}
	recycle.PoisonI32(pl.stageI)
	recycle.PoisonI32(pl.lens)
	recycle.PoisonI32(pl.newLens)
	return newPtr, newValues
}

// Rule selects the iteration-partitioning heuristic.
type Rule int

// Iteration partitioning rules (paper §3.1).
const (
	// OwnerComputes assigns each iteration to the owner of its first
	// (left-hand-side) reference.
	OwnerComputes Rule = iota
	// AlmostOwnerComputes assigns each iteration to the processor owning
	// the majority of the data it references, ties to the lowest rank.
	AlmostOwnerComputes
)

// IterationOwners partitions loop iterations. refs[i] lists the global data
// indices referenced by this processor's i-th local iteration; dataTT is
// the data distribution. Returns the processor assigned to each local
// iteration. Collective for non-replicated tables.
func IterationOwners(p *comm.Proc, refs [][]int32, dataTT *ttable.Table, rule Rule) []int32 {
	// Flatten for one batch dereference.
	var flat []int32
	for _, r := range refs {
		if len(r) == 0 {
			panic("remap: iteration with no data references")
		}
		if rule == OwnerComputes {
			flat = append(flat, r[0])
		} else {
			flat = append(flat, r...)
		}
	}
	ents := dataTT.Dereference(p, flat)
	out := make([]int32, len(refs))
	pos := 0
	votes := make([]int32, p.Size())
	for i, r := range refs {
		if rule == OwnerComputes {
			out[i] = ents[pos].Owner
			pos++
			continue
		}
		for k := range votes {
			votes[k] = 0
		}
		best := int32(0)
		for range r {
			o := ents[pos].Owner
			votes[o]++
			pos++
			if votes[o] > votes[best] || (votes[o] == votes[best] && o < best) {
				best = o
			}
		}
		out[i] = best
	}
	p.ComputeMem(len(flat))
	return out
}
