// Package schedule implements CHAOS communication schedules (paper §3.2.1)
// and the data transportation primitives that use them.
//
// A schedule for processor p records:
//   - send list: local offsets of elements p must send to each processor;
//   - permutation list: for each source, the local buffer slots where
//     incoming off-processor elements are placed;
//   - send/fetch sizes: message sizes per peer.
//
// Schedules are built from a stamped inspector hash table: Build(ht, include,
// exclude) constructs a regular schedule (include = one stamp), a merged
// schedule (include = union of stamps) or an incremental schedule
// (exclude = stamps of earlier schedules whose data is already resident),
// mirroring CHAOS_schedule in Figure 6 of the paper.
//
// Data moves through a regular schedule by one split-phase multi-array core
// (motion.go); Gather/Scatter and their W, Multi and Start forms are
// one-line spellings of it.
//
// Light-weight schedules (LightSchedule) support reduction-style movement
// where placement order is irrelevant (scatter_append): they carry only
// message sizes, skipping index translation and permutation lists entirely.
package schedule

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/hashtab"
	"repro/internal/recycle"
)

// Point-to-point tags used by the transport primitives. They stay below the
// collective tag space reserved by package comm.
const (
	tagGather  = 101
	tagScatter = 102
	tagAppend  = 103
)

// Schedule is a regular communication schedule. The permutation lists are
// stored flat (CSR): one backing []int32 plus per-peer extents; the send
// lists are the per-peer lists the build exchange delivered. Rebuilding a
// schedule in place (BuildInto) reuses all of them, so the adaptive
// inspector stops allocating once warm.
type Schedule struct {
	nprocs int
	// sendOffs[r] is the send list for peer r: local offsets (into the
	// owned section) of elements this processor must send during Gather
	// (and receive-combine during Scatter*), as r requested them in the
	// build exchange. sendOffs[self] is this rank's own, empty, request.
	sendOffs [][]int32
	// recvSlot backs the permutation lists: local buffer slots (>= nLocal,
	// in the ghost section) where arriving elements are placed. The list
	// for peer r is recvSlot[recvPtr[r]:recvPtr[r+1]] (rank-ascending CSR).
	recvSlot []int32
	recvPtr  []int32
	// minLen is 1 + the largest local index referenced, for buffer checks.
	minLen int
	// Build scratch, reused across BuildInto and FromTranslatedInto calls:
	// selected hash-table entries, the per-owner request lists (sharing
	// recvPtr's extents; reqTo[r] is owner r's section) and a per-owner
	// fill cursor.
	selEnts []hashtab.Entry
	reqOff  []int32
	cur     []int32
	reqTo   [][]int32
	// motion is the schedule's data-motion handle (motion.go): at most one
	// motion is in flight per schedule, so embedding it keeps every
	// collective allocation-free in steady state. one/oneW are the
	// 1-element argument lists the single-array spellings pass to the
	// multi-array core.
	motion Motion
	one    [1][]float64
	oneW   [1]int
}

// NProcs returns the number of processors the schedule spans.
func (s *Schedule) NProcs() int { return s.nprocs }

// RecvSlots returns the permutation list for rank r: local buffer slots
// where elements arriving from r are placed. The slice aliases schedule
// storage; do not modify or retain it across a rebuild.
func (s *Schedule) RecvSlots(r int) []int32 {
	return s.recvSlot[s.recvPtr[r]:s.recvPtr[r+1]]
}

// TotalFetch returns the total number of off-processor elements this
// schedule gathers.
func (s *Schedule) TotalFetch() int { return len(s.recvSlot) }

// totalSend returns the total number of elements this schedule sends.
func (s *Schedule) totalSend() int {
	n := 0
	for _, offs := range s.sendOffs {
		n += len(offs)
	}
	return n
}

// MinLen returns the minimum local buffer length (owned section + ghost
// section) a data array must have to be used with this schedule.
func (s *Schedule) MinLen() int { return s.minLen }

// Build constructs a communication schedule from the hash-table entries
// selected by (include, exclude), as CHAOS_schedule does. It is a collective
// call: every processor must invoke it with the same stamp combination.
//
// The returned schedule gathers/scatters exactly the off-processor elements
// whose stamps match; on-processor entries need no communication and are
// skipped.
func Build(p *comm.Proc, ht *hashtab.Table, include, exclude hashtab.Stamp) *Schedule {
	return BuildInto(nil, p, ht, include, exclude)
}

// BuildInto is Build reusing s's storage (s may be nil). Adaptive codes that
// rebuild a schedule every adapt cycle pass the previous schedule back, so
// steady-state rebuilds perform no heap allocation: the CSR backing arrays,
// the request/reply exchange buffers and the selection scratch are all
// retained across calls. The returned schedule is s (or a fresh one).
func BuildInto(s *Schedule, p *comm.Proc, ht *hashtab.Table, include, exclude hashtab.Stamp) *Schedule {
	if s == nil {
		s = &Schedule{}
	}
	s.nprocs = p.Size()
	s.minLen = ht.NLocal()

	// Request lists per owner: the owner-local offsets we need, and the
	// ghost slots they map to here. Count per owner, prefix-sum, then fill
	// — the CSR build. reqOff shares recvPtr's extents with recvSlot.
	s.selEnts = ht.SelectInto(s.selEnts, include, exclude)
	s.recvPtr = recycle.Sized(s.recvPtr, p.Size()+1)
	ptr := s.recvPtr
	clear(ptr)
	for _, e := range s.selEnts {
		if int(e.Owner) != p.Rank() {
			ptr[e.Owner+1]++
		}
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	nFetch := int(ptr[p.Size()])
	s.recvSlot = recycle.Sized(s.recvSlot, nFetch)
	s.reqOff = recycle.Sized(s.reqOff, nFetch)
	s.cur = recycle.Sized(s.cur, p.Size())
	recvSlot, reqOff, cur := s.recvSlot, s.reqOff, s.cur
	clear(cur) // the fill below writes every slot of recvSlot and reqOff
	for _, e := range s.selEnts {
		if int(e.Owner) == p.Rank() {
			continue
		}
		k := ptr[e.Owner] + cur[e.Owner]
		cur[e.Owner]++
		recvSlot[k] = e.Local
		reqOff[k] = e.Offset
		if int(e.Local)+1 > s.minLen {
			s.minLen = int(e.Local) + 1
		}
	}

	s.exchange(p)
	p.ComputeMem(s.totalSend() + s.TotalFetch())
	return s
}

// exchange sends owner r its request list reqOff[recvPtr[r]:recvPtr[r+1]]
// in one all-to-all; what arrives from r is the send list to r.
func (s *Schedule) exchange(p *comm.Proc) {
	s.reqTo = recycle.Sized(s.reqTo, p.Size())
	for r := range s.reqTo {
		s.reqTo[r] = s.reqOff[s.recvPtr[r]:s.recvPtr[r+1]]
	}
	s.sendOffs = p.AllToAllI32(s.reqTo, s.sendOffs)
}

// FromTranslatedInto builds a schedule directly from already-translated
// references: reference k lives on owners[k] at local offset offsets[k].
// References must be distinct (no duplicate removal is performed — callers
// with possibly-duplicated references should go through a hash table).
// Returns the schedule plus the localized index of each reference
// (its offset if owned, or nLocal+ghostSlot). Collective.
//
// This is the index-translation path the paper's "regular schedules" row in
// Table 4 pays on every DSMC time step: a full schedule with permutation
// lists is constructed for a data access pattern that changes each step.
//
// It reuses s's storage and loc's (either may be nil), as BuildInto is
// Build: a caller that rebuilds every step passes both back and a warm
// rebuild allocates nothing. The returned schedule is s (or a fresh one)
// and the returned indices are loc resized.
func FromTranslatedInto(s *Schedule, loc []int32, p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32) {
	if len(owners) != len(offsets) {
		panic(fmt.Sprintf("schedule: %d owners but %d offsets", len(owners), len(offsets)))
	}
	if s == nil {
		s = &Schedule{}
	}
	s.nprocs = p.Size()
	if cap(loc) < len(owners) {
		loc = make([]int32, len(owners))
	}
	loc = loc[:len(owners)]
	s.recvPtr = recycle.Sized(s.recvPtr, p.Size()+1)
	ptr := s.recvPtr
	clear(ptr)
	for _, o := range owners {
		if int(o) != p.Rank() {
			ptr[o+1]++
		}
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	nFetch := int(ptr[p.Size()])
	s.recvSlot = recycle.Sized(s.recvSlot, nFetch)
	s.reqOff = recycle.Sized(s.reqOff, nFetch)
	s.cur = recycle.Sized(s.cur, p.Size())
	recvSlot, reqOff, cur := s.recvSlot, s.reqOff, s.cur
	clear(cur) // the fill below writes every slot of recvSlot and reqOff
	ghost := 0
	for k, o := range owners {
		if int(o) == p.Rank() {
			loc[k] = offsets[k]
			continue
		}
		slot := int32(nLocal + ghost)
		ghost++
		loc[k] = slot
		i := ptr[o] + cur[o]
		cur[o]++
		reqOff[i] = offsets[k]
		recvSlot[i] = slot
	}
	s.minLen = nLocal + ghost
	p.ComputeMem(len(owners))

	s.exchange(p)
	p.ComputeMem(s.totalSend())
	return s, loc
}
