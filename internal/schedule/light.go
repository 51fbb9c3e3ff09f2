package schedule

import (
	"encoding/binary"
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
	SendCounts []int32
	RecvCounts []int32
	// packF/packI are per-destination packing scratch reused across
	// Move calls, so repeated appends with one schedule stop allocating.
	packF [][]float64
	packI [][]int32
	// countMsgs holds the per-peer message headers of the count exchange
	// (slices of a per-build buffer, see BuildLightInto).
	countMsgs [][]byte
}

// BuildLight constructs a light-weight schedule from per-item destination
// processors. Items destined to the calling processor are counted in
// SendCounts[self] but never travel. Collective: a single pre-sized count
// exchange — every peer's 4-byte count is encoded into one flat buffer and
// the per-peer messages are slices of it, so the exchange costs one
// allocation instead of one per peer (the wire traffic is unchanged: P-1
// one-count messages).
//
// Ownership: the flat count buffer is handed to AllToAll as raw bytes, and
// the in-memory transport delivers raw payloads by reference, so it belongs
// to the receivers from then on and every build allocates a fresh one (it
// is 4·P bytes). See BuildLightInto for what a rebuild does reuse.
func BuildLight(p *comm.Proc, dest []int32) *LightSchedule {
	return BuildLightInto(nil, p, dest)
}

// BuildLightInto is BuildLight reusing ls's storage (ls may be nil, and must
// otherwise have been built on p). Codes that rebuild a light-weight schedule
// every time step pass the previous one back: the count arrays, the message
// headers and — what matters — the MoveF64Into/MoveI32Into packing scratch
// survive the rebuild, so build + move stop allocating per item once warm.
// The returned schedule is ls (or a fresh one); the modeled cost and the
// wire traffic are those of BuildLight.
//
// The one thing a rebuild must not recycle is the count buffer itself: with
// no barrier between two builds, a fast rank would overwrite a count its
// peer has not decoded yet. Only arena-staged sends (SendF64Buf and friends)
// and receive-side or pack-side scratch are safe to reuse across collectives.
func BuildLightInto(ls *LightSchedule, p *comm.Proc, dest []int32) *LightSchedule {
	if ls == nil {
		ls = &LightSchedule{
			nprocs:     p.Size(),
			self:       p.Rank(),
			SendCounts: make([]int32, p.Size()),
			RecvCounts: make([]int32, p.Size()),
			countMsgs:  make([][]byte, p.Size()),
		}
	}
	clear(ls.SendCounts)
	for _, d := range dest {
		if d < 0 || int(d) >= p.Size() {
			panic(fmt.Sprintf("schedule: append destination %d out of range [0,%d)", d, p.Size()))
		}
		ls.SendCounts[d]++
	}
	p.ComputeMem(len(dest))
	flat := make([]byte, 4*p.Size()) // fresh every build: the receivers alias it
	for r := range ls.countMsgs {
		if r == p.Rank() {
			continue
		}
		binary.LittleEndian.PutUint32(flat[4*r:], uint32(ls.SendCounts[r]))
		ls.countMsgs[r] = flat[4*r : 4*r+4 : 4*r+4]
	}
	for r, b := range p.AllToAll(ls.countMsgs) {
		if r == p.Rank() {
			ls.RecvCounts[r] = ls.SendCounts[r]
			continue
		}
		ls.RecvCounts[r] = int32(binary.LittleEndian.Uint32(b))
	}
	return ls
}

// TotalRecv returns the number of items this processor will receive or keep
// during MoveF64 (including its own).
func (ls *LightSchedule) TotalRecv() int {
	n := 0
	for _, c := range ls.RecvCounts {
		n += int(c)
	}
	return n
}

// TotalSend returns the number of items actually leaving this processor
// (destinations other than itself).
func (ls *LightSchedule) TotalSend() int {
	n := 0
	for r, c := range ls.SendCounts {
		if r != ls.self {
			n += int(c)
		}
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
	return ls.MoveI32Into(p, dest, items, width, nil)
}

// MoveI32Into is MoveI32 appending into out[:0] (see MoveF64Into).
func (ls *LightSchedule) MoveI32Into(p *comm.Proc, dest []int32, items []int32, width int, out []int32) []int32 {
	return moveLightInto(ls, p, dest, items, width, out, &ls.packI, (*comm.Proc).SendI32Buf, (*comm.Proc).RecvI32Into)
}

// MoveF64 performs scatter_append: item i (the width float64 values
// items[i*width:(i+1)*width]) is delivered to processor dest[i] and appended
// to its result in arrival order (own items first, then by increasing rank
// distance). dest must be the same slice contents used for BuildLight.
// Collective. The result has ls.TotalRecv() items.
func (ls *LightSchedule) MoveF64(p *comm.Proc, dest []int32, items []float64, width int) []float64 {
	return ls.MoveF64Into(p, dest, items, width, nil)
}

// MoveF64Into is MoveF64 appending into out[:0]: callers that keep the
// returned slice and feed it back on the next time step make the append
// allocation-free in steady state. out may be nil.
func (ls *LightSchedule) MoveF64Into(p *comm.Proc, dest []int32, items []float64, width int, out []float64) []float64 {
	return moveLightInto(ls, p, dest, items, width, out, &ls.packF, (*comm.Proc).SendF64Buf, (*comm.Proc).RecvF64Into)
}

// moveLightInto is scatter_append, written once over the element type: pack
// per destination into *pack (the schedule's scratch of that type), keep
// the rank's own items, send one message per other destination, append each
// arriving one. send and recv are passed as method expressions, which,
// unlike method values, allocate no closure per call.
func moveLightInto[T any](ls *LightSchedule, p *comm.Proc, dest []int32, items []T, width int, out []T, pack *[][]T,
	send func(p *comm.Proc, to, tag int, xs []T), recv func(p *comm.Proc, from, tag int, dst []T) []T) []T {
	if len(items) != len(dest)*width {
		panic(fmt.Sprintf("schedule: light move with %d values for %d items of width %d", len(items), len(dest), width))
	}
	if *pack == nil {
		*pack = make([][]T, ls.nprocs)
	}
	packed := *pack
	for r := range packed {
		need := int(ls.SendCounts[r]) * width
		packed[r] = emptied(packed[r], need, need/4)
	}
	for i, d := range dest {
		packed[d] = append(packed[d], items[i*width:(i+1)*width]...)
	}
	p.ComputeMem(len(items))

	out = emptied(out, ls.TotalRecv()*width, 0)
	out = append(out, packed[p.Rank()]...) // keep own items, in order
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		if len(packed[dst]) > 0 {
			send(p, dst, tagAppend, packed[dst])
		}
	}
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		if ls.RecvCounts[src] == 0 || src == p.Rank() {
			continue
		}
		pos := len(out)
		want := int(ls.RecvCounts[src]) * width
		vals := recv(p, src, tagAppend, out[pos:pos+want])
		if len(vals) != want {
			panic(fmt.Sprintf("schedule: append from %d delivered %d values, want %d", src, len(vals), want))
		}
		out = out[:pos+want]
	}
	p.ComputeMem(ls.TotalRecv() * width)
	return out
}
