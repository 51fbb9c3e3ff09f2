package schedule

import (
	"fmt"

	"repro/internal/comm"
)

// LightSchedule is a light-weight communication schedule (paper §3.2.1):
// only per-peer message sizes, no index translation, no permutation list.
// It supports scatter_append, the data transportation primitive for
// reduction-style movement where placement order does not matter (the
// REDUCE(APPEND, ...) intrinsic of §5.2.1).
type LightSchedule struct {
	nprocs     int
	self       int
	sendCounts []int32
	recvCounts []int32
	// packF/packI are per-destination packing scratch reused across
	// Move calls, so repeated appends with one schedule stop allocating.
	// The entry of the schedule's own rank stays nil: own items are packed
	// straight into the result.
	packF [][]float64
	packI [][]int32
	// countsTo/countsFrom are the count exchange's one-count lists:
	// countsTo[r] is SendCounts[r:r+1], countsFrom[r] the count from r.
	countsTo, countsFrom [][]int32
}

// BuildLight constructs a light-weight schedule from per-item destination
// processors. Items destined to the calling processor are counted in
// SendCounts[self] but never travel. Collective: one count exchange, P-1
// one-count messages.
func BuildLight(p *comm.Proc, dest []int32) *LightSchedule {
	return BuildLightInto(nil, p, dest)
}

// BuildLightInto is BuildLight reusing ls's storage (ls may be nil, and must
// otherwise have been built on p). Codes that rebuild a light-weight schedule
// every time step pass the previous one back: the count arrays, the count
// exchange's lists and — what matters — the MoveF64Into/MoveI32Into packing
// scratch survive the rebuild, so build + move stop allocating once warm.
// The returned schedule is ls (or a fresh one); the modeled cost and the
// wire traffic are those of BuildLight.
func BuildLightInto(ls *LightSchedule, p *comm.Proc, dest []int32) *LightSchedule {
	if ls == nil {
		ls = &LightSchedule{
			nprocs:     p.Size(),
			self:       p.Rank(),
			sendCounts: make([]int32, p.Size()),
			recvCounts: make([]int32, p.Size()),
			countsTo:   make([][]int32, p.Size()),
		}
		for r := range ls.countsTo {
			ls.countsTo[r] = ls.sendCounts[r : r+1]
		}
	}
	clear(ls.sendCounts)
	for _, d := range dest {
		if d < 0 || int(d) >= p.Size() {
			panic(fmt.Sprintf("schedule: append destination %d out of range [0,%d)", d, p.Size()))
		}
		ls.sendCounts[d]++
	}
	p.ComputeMem(len(dest))
	ls.countsFrom = p.AllToAllI32(ls.countsTo, ls.countsFrom)
	for r, c := range ls.countsFrom {
		ls.recvCounts[r] = c[0]
	}
	return ls
}

// TotalRecv returns the number of items this processor will receive or keep
// during MoveF64 (including its own).
func (ls *LightSchedule) TotalRecv() int {
	n := 0
	for _, c := range ls.recvCounts {
		n += int(c)
	}
	return n
}

// emptied returns buf truncated to length 0 with capacity for n values. When
// it has to grow it allocates room values more: the per-peer packing scratch
// of a schedule rebuilt in place every time step asks for a quarter of
// headroom, so counts that drift from step to step do not reallocate on
// every new maximum; results are sized exactly.
func emptied[T any](buf []T, n, room int) []T {
	if cap(buf) < n {
		return make([]T, 0, n+room)
	}
	return buf[:0]
}

// MoveI32 is MoveF64 for int32 payloads. When MoveF64 and MoveI32 are
// called with the same dest slice, received items correspond position-wise
// across the two calls (both pack and append in identical order), so an
// item's components may be split across one int and one float move.
func (ls *LightSchedule) MoveI32(p *comm.Proc, dest []int32, items []int32, width int) []int32 {
	return ls.moveI32Into(p, dest, items, width, nil)
}

// moveI32Into is MoveI32 appending into out[:0] (see MoveF64Into).
func (ls *LightSchedule) moveI32Into(p *comm.Proc, dest []int32, items []int32, width int, out []int32) []int32 {
	return moveLightInto(ls, p, dest, items, width, out, &ls.packI, (*comm.Proc).PackI32, (*comm.Proc).RecvI32View)
}

// MoveF64 performs scatter_append: item i (the width float64 values
// items[i*width:(i+1)*width]) is delivered to processor dest[i] and appended
// to its result. The result holds the caller's own items first, in their
// order in items, then each source's items in their order there, sources by
// increasing rank distance — so a caller that knows which items it keeps
// knows their offsets in the result before the move. Own items are copied
// once, straight into the result; the others are packed per destination and
// sent as one message each. dest must be the same slice contents used for
// BuildLight. Collective. The result has ls.TotalRecv() items.
func (ls *LightSchedule) MoveF64(p *comm.Proc, dest []int32, items []float64, width int) []float64 {
	return ls.MoveF64Into(p, dest, items, width, nil)
}

// MoveF64Into is MoveF64 appending into out[:0]: callers that keep the
// returned slice and feed it back on the next time step make the append
// allocation-free in steady state. out may be nil.
func (ls *LightSchedule) MoveF64Into(p *comm.Proc, dest []int32, items []float64, width int, out []float64) []float64 {
	return moveLightInto(ls, p, dest, items, width, out, &ls.packF, (*comm.Proc).PackF64, (*comm.Proc).RecvF64View)
}

// moveLightInto is scatter_append, written once over the element type: pack
// per destination into *pack (the schedule's scratch of that type), send one
// message per other destination, append each arriving one. The rank's own
// row is out itself, sized for every item kept and received, so own items
// land in the result in the pack pass, in order, and are copied once; the
// schedule keeps no packing row for itself between calls. Each row is copied
// into its packed message, and each arriving message out of its view into
// the result. packT and view are the comm calls of the element type, passed
// as method expressions, which, unlike method values, allocate no closure
// per call.
func moveLightInto[T any](ls *LightSchedule, p *comm.Proc, dest []int32, items []T, width int, out []T, pack *[][]T,
	packT func(p *comm.Proc, n int) []T, view func(p *comm.Proc, from, tag int) []T) []T {
	if len(items) != len(dest)*width {
		panic(fmt.Sprintf("schedule: light move with %d values for %d items of width %d", len(items), len(dest), width))
	}
	if *pack == nil {
		*pack = make([][]T, ls.nprocs)
	}
	packed := *pack
	for r := range packed {
		if r != ls.self {
			need := int(ls.sendCounts[r]) * width
			packed[r] = emptied(packed[r], need, need/4)
		}
	}
	packed[ls.self] = emptied(out, ls.TotalRecv()*width, 0)
	for i, d := range dest {
		packed[d] = append(packed[d], items[i*width:(i+1)*width]...)
	}
	out, packed[ls.self] = packed[ls.self], nil
	p.ComputeMem(len(items))

	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		if len(packed[dst]) > 0 {
			copy(packT(p, len(packed[dst])), packed[dst])
			p.SendPacked(dst, tagAppend)
		}
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		if ls.recvCounts[src] == 0 || src == p.Rank() {
			continue
		}
		vals := view(p, src, tagAppend)
		if want := int(ls.recvCounts[src]) * width; len(vals) != want {
			panic(fmt.Sprintf("schedule: append from %d delivered %d values, want %d", src, len(vals), want))
		}
		out = append(out, vals...)
		p.ReleaseView()
	}
	p.ComputeMem(ls.TotalRecv() * width)
	return out
}
