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
)

// Point-to-point tags used by the transport primitives. They stay below the
// collective tag space reserved by package comm.
const (
	tagGather  = 101
	tagScatter = 102
	tagAppend  = 103
	tagBuild   = 104
)

// Schedule is a regular communication schedule. The send and permutation
// lists are stored flat (CSR): one backing []int32 per direction plus
// per-peer extents, instead of a [][]int32 per direction. The executor pack
// and unpack loops then stream through contiguous memory, and rebuilding a
// schedule in place (BuildInto) reuses the backing arrays, so the adaptive
// inspector stops allocating once warm.
type Schedule struct {
	nprocs int
	// sendOff backs the send lists: local offsets (into the owned section)
	// of elements this processor must send during Gather (and
	// receive-combine during Scatter*). The list for peer r is
	// sendOff[sendIx[2r]:sendIx[2r+1]]; extents are recorded pairwise
	// because the lists are appended in ring arrival order during the build
	// exchange, not in rank order.
	sendOff []int32
	sendIx  []int32
	// recvSlot backs the permutation lists: local buffer slots (>= nLocal,
	// in the ghost section) where arriving elements are placed. The list
	// for peer r is recvSlot[recvPtr[r]:recvPtr[r+1]] (rank-ascending CSR).
	recvSlot []int32
	recvPtr  []int32
	// minLen is 1 + the largest local index referenced, for buffer checks.
	minLen int
	// stageS/stageR are staging scratch for the pack/unpack loops, reused
	// across Gather/Scatter calls so the executor stops allocating after
	// the first iteration. One buffer per direction suffices: packed values
	// are encoded into the send arena before the next peer is packed, and
	// received values are unpacked before the next peer is received. Both
	// die with the schedule, so a rebuild naturally invalidates them.
	stageS []float64
	stageR []float64
	// Build scratch, reused across BuildInto calls: selected hash-table
	// entries, the per-owner request lists (sharing recvPtr's extents), a
	// per-owner fill cursor, and the request-exchange receive buffer.
	selEnts []hashtab.Entry
	reqOff  []int32
	cur     []int32
	recvBuf []int32
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

// SendOffs returns the send list for rank r: local offsets of the elements
// this processor sends to r. The slice aliases schedule storage; do not
// modify or retain it across a rebuild.
func (s *Schedule) SendOffs(r int) []int32 {
	return s.sendOff[s.sendIx[2*r]:s.sendIx[2*r+1]]
}

// RecvSlots returns the permutation list for rank r: local buffer slots
// where elements arriving from r are placed. The slice aliases schedule
// storage; do not modify or retain it across a rebuild.
func (s *Schedule) RecvSlots(r int) []int32 {
	return s.recvSlot[s.recvPtr[r]:s.recvPtr[r+1]]
}

// SendSize returns the number of elements sent to rank r (the paper's
// send_size array).
func (s *Schedule) SendSize(r int) int { return int(s.sendIx[2*r+1] - s.sendIx[2*r]) }

// FetchSize returns the number of elements fetched from rank r (the paper's
// fetch_size array).
func (s *Schedule) FetchSize(r int) int { return int(s.recvPtr[r+1] - s.recvPtr[r]) }

// TotalFetch returns the total number of off-processor elements this
// schedule gathers.
func (s *Schedule) TotalFetch() int { return len(s.recvSlot) }

// TotalSend returns the total number of elements this schedule sends.
func (s *Schedule) TotalSend() int { return len(s.sendOff) }

// MinLen returns the minimum local buffer length (owned section + ghost
// section) a data array must have to be used with this schedule.
func (s *Schedule) MinLen() int { return s.minLen }

// zeroI32 returns a zeroed slice of n int32 backed by *buf.
func zeroI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	*buf = s
	return s
}

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
//
// The request exchange is point-to-point in the exact ring order AllToAll
// uses (send to rank+k, receive from rank-k, empty messages included), so
// the modeled message counts, wire bytes and virtual times are identical to
// the collective form.
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
	ptr := zeroI32(&s.recvPtr, p.Size()+1)
	for _, e := range s.selEnts {
		if int(e.Owner) != p.Rank() {
			ptr[e.Owner+1]++
		}
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	nFetch := int(ptr[p.Size()])
	recvSlot := zeroI32(&s.recvSlot, nFetch)
	reqOff := zeroI32(&s.reqOff, nFetch)
	cur := zeroI32(&s.cur, p.Size())
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

	// Exchange requests; what arrives from r is my send list to r. Sends
	// stage through the Proc arena, receives decode into schedule scratch
	// and append to the flat send-list backing in arrival order.
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		p.SendI32Buf(dst, tagBuild, reqOff[ptr[dst]:ptr[dst+1]])
	}
	sendIx := zeroI32(&s.sendIx, 2*p.Size())
	s.sendOff = s.sendOff[:0]
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		s.recvBuf = p.RecvI32Into(src, tagBuild, s.recvBuf)
		sendIx[2*src] = int32(len(s.sendOff))
		s.sendOff = append(s.sendOff, s.recvBuf...)
		sendIx[2*src+1] = int32(len(s.sendOff))
	}
	p.ComputeMem(s.TotalSend() + s.TotalFetch())
	return s
}

// FromTranslated builds a schedule directly from already-translated
// references: reference k lives on owners[k] at local offset offsets[k].
// References must be distinct (no duplicate removal is performed — callers
// with possibly-duplicated references should go through a hash table).
// Returns the schedule plus the localized index of each reference
// (its offset if owned, or nLocal+ghostSlot). Collective.
//
// This is the index-translation path the paper's "regular schedules" row in
// Table 4 pays on every DSMC time step: a full schedule with permutation
// lists is constructed for a data access pattern that changes each step.
func FromTranslated(p *comm.Proc, nLocal int, owners, offsets []int32) (*Schedule, []int32) {
	if len(owners) != len(offsets) {
		panic(fmt.Sprintf("schedule: %d owners but %d offsets", len(owners), len(offsets)))
	}
	s := &Schedule{nprocs: p.Size(), minLen: nLocal}
	loc := make([]int32, len(owners))
	ptr := make([]int32, p.Size()+1)
	for _, o := range owners {
		if int(o) != p.Rank() {
			ptr[o+1]++
		}
	}
	for r := 0; r < p.Size(); r++ {
		ptr[r+1] += ptr[r]
	}
	nFetch := int(ptr[p.Size()])
	s.recvSlot = make([]int32, nFetch)
	s.recvPtr = ptr
	reqOff := make([]int32, nFetch)
	cur := make([]int32, p.Size())
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
		s.recvSlot[i] = slot
	}
	s.minLen = nLocal + ghost
	p.ComputeMem(len(owners))

	// One flat request buffer, per-peer subslices (wire bytes unchanged).
	bufs := make([][]byte, p.Size())
	flat := make([]byte, 0, 4*nFetch)
	for r := 0; r < p.Size(); r++ {
		start := len(flat)
		flat = comm.AppendI32(flat, reqOff[ptr[r]:ptr[r+1]])
		bufs[r] = flat[start:len(flat):len(flat)]
	}
	s.sendIx = make([]int32, 2*p.Size())
	for r, b := range p.AllToAll(bufs) {
		if r == p.Rank() {
			continue
		}
		s.sendIx[2*r] = int32(len(s.sendOff))
		s.sendOff = append(s.sendOff, comm.DecodeI32(b)...)
		s.sendIx[2*r+1] = int32(len(s.sendOff))
	}
	p.ComputeMem(s.TotalSend())
	return s, loc
}
