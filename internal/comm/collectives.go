package comm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/recycle"
)

// Reserved tags for collectives. User point-to-point tags must stay below
// tagCollBase. Because every collective is invoked in the same global order
// by all SPMD ranks and per-pair delivery is FIFO, a fixed tag per
// collective type is unambiguous.
const (
	tagCollBase  = 1 << 24
	tagBarrier   = tagCollBase + 0
	tagBcast     = tagCollBase + 1
	tagReduce    = tagCollBase + 3
	tagAllToAll  = tagCollBase + 4
	tagAllGather = tagCollBase + 5
)

// collectiveOf names the collective each reserved tag belongs to, for
// errors. Reduce's and the all-gathers' results travel under tagBcast.
var collectiveOf = map[int]string{
	tagBarrier: "Barrier", tagBcast: "Bcast", tagReduce: "Reduce", tagAllToAll: "AllToAll", tagAllGather: "AllGather",
}

// Op selects the combining operation for reductions.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// Barrier blocks until all ranks have entered it; clocks synchronize to
// within O(alpha log P) of the slowest rank (dissemination algorithm).
func (p *Proc) Barrier() {
	if p.size == 1 {
		return
	}
	for k := 1; k < p.size; k <<= 1 {
		to := (p.rank + k) % p.size
		from := (p.rank - k + p.size) % p.size
		p.Send(to, tagBarrier, nil)
		p.Recv(from, tagBarrier)
	}
}

// lowestRecvMask returns the binomial-tree mask at which relRank receives:
// the lowest set bit of relRank, or the first power of two >= size for the
// root (relRank 0).
func lowestRecvMask(relRank, size int) int {
	mask := 1
	for relRank&mask == 0 && mask < size {
		mask <<= 1
	}
	return mask
}

// AllGatherI32Into collects every rank's list on every rank and returns the
// lists concatenated in rank order (lists may differ in length; empty ones
// included), decoded into dst's backing array (dst may be nil; one too
// short is replaced under recycle.Sized's rule, so a nil dst is allocated
// exactly). The lists travel as one frame of (rank, byte length) records: a
// binomial gather to rank 0, then a binomial broadcast of the whole frame.
func (p *Proc) AllGatherI32Into(dst, xs []int32) []int32 {
	return allGather(p, dst, nil, xs)
}

// AllGatherI64 is AllGatherI32Into for []int64 lists, returned indexed by
// rank, each decoded fresh from the wire.
func (p *Proc) AllGatherI64(xs []int64) [][]int64 {
	lists := make([][]int64, p.size)
	allGather(p, nil, lists, xs)
	return lists
}

// AllGatherF64 is AllGatherI64 for []float64 lists.
func (p *Proc) AllGatherF64(xs []float64) [][]float64 {
	lists := make([][]float64, p.size)
	allGather(p, nil, lists, xs)
	return lists
}

// allGather is the typed all-gather, written once over the element type: it
// returns the ranks' lists concatenated in rank order in dst's backing array
// and, when lists is non-nil, points lists[r] at rank r's part (see
// decodeFrame). A rank first receives its children's frames, so it can size
// its own frame once: its 8-byte record header and payload, then the
// children's frames in tree order. Tree order is rank order: the
// child at mask m roots the ranks rank+m up to rank+2m-1.
func allGather[T word](p *Proc, dst []T, lists [][]T, xs []T) []T {
	w := sizeOf[T]()
	var kids [][]byte
	n := 8 + w*len(xs)
	mask := 1
	for ; mask < p.size && p.rank&mask == 0; mask <<= 1 {
		if p.rank|mask < p.size {
			kids = append(kids, p.Recv(p.rank|mask, tagAllGather))
			n += len(kids[len(kids)-1])
		}
	}
	frame := make([]byte, 8, n)
	binary.LittleEndian.PutUint32(frame, uint32(p.rank))
	binary.LittleEndian.PutUint32(frame[4:], uint32(w*len(xs)))
	frame = appendWords(frame, xs)
	for _, k := range kids {
		frame = append(frame, k...)
	}
	if p.rank != 0 {
		p.Send(p.rank-mask, tagAllGather, frame)
		frame = p.Recv(p.rank-mask, tagBcast)
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if p.rank+m < p.size {
			p.Send(p.rank+m, tagBcast, frame)
		}
	}
	return decodeFrame(dst, lists, frame, p.size)
}

// decodeFrame decodes a gather frame into dst's backing array (replaced
// under recycle.Sized's rule when too short) and returns the ranks' lists
// concatenated in rank order. When lists is non-nil (length size) it also
// points lists[r] at rank r's part; each part is capped at its end, and none
// is nil. Over TCP the frame comes from another process, so every header
// and length is checked against the frame, and the records must name ranks
// 0 to size-1 in order, as allGather sends them.
func decodeFrame[T word](dst []T, lists [][]T, frame []byte, size int) []T {
	w := sizeOf[T]()
	total := max(len(frame)-8*size, 0) / w
	if dst = recycle.Sized(dst, total); dst == nil {
		dst = []T{} // so that no part is nil, even when every list is empty
	}
	off, at := 0, 0
	for r := 0; r < size; r++ {
		if len(frame)-off < 8 {
			panic(fmt.Sprintf("comm: gather frame cut inside the header of rank %d at byte %d of %d", r, off, len(frame)))
		}
		rank := binary.LittleEndian.Uint32(frame[off:])
		n := binary.LittleEndian.Uint32(frame[off+4:])
		off += 8
		// The records still to come need their headers.
		left := len(frame) - off - 8*(size-1-r)
		switch {
		case rank != uint32(r):
			panic(fmt.Sprintf("comm: gather frame names rank %d where rank %d of %d belongs", rank, r, size))
		case uint64(n) > uint64(max(left, 0)) || int(n)%w != 0:
			panic(fmt.Sprintf("comm: gather frame gives rank %d %d bytes, %d left, width %d", rank, n, left, w))
		}
		k := int(n) / w
		part := dst[at : at+k : at+k]
		decodeInto(part, frame[off:off+int(n)])
		if lists != nil {
			lists[r] = part
		}
		at += k
		off += int(n)
	}
	if off != len(frame) {
		panic(fmt.Sprintf("comm: gather frame runs %d bytes past its last record", len(frame)-off))
	}
	return dst
}

// combine folds src into dst element-wise under op, in index order.
func combine[T float64 | int64](op Op, dst, src []T) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic("comm: unknown reduction op")
	}
}

// AllReduceF64 combines vec element-wise across all ranks with op and
// returns the result on every rank. vec is not modified.
func (p *Proc) AllReduceF64(op Op, vec []float64) []float64 {
	acc := make([]float64, len(vec))
	copy(acc, vec)
	p.AllReduceF64Into(op, acc, nil)
	return acc
}

// AllReduceF64Into combines vec element-wise across all ranks with op,
// leaving the result in vec on every rank. scratch is caller-owned receive
// space, grown as needed and returned for reuse; once scratch has capacity
// len(vec) the call performs no allocations.
func (p *Proc) AllReduceF64Into(op Op, vec, scratch []float64) []float64 {
	return allReduceInto(p, op, vec, scratch)
}

// allReduceInto is the in-place all-reduce, written once over the element
// type: a binomial reduce to rank 0, then a broadcast of the result along
// the same binomial tree as allGather's broadcast of its frame.
func allReduceInto[T float64 | int64](p *Proc, op Op, vec, scratch []T) []T {
	if p.size == 1 {
		return scratch
	}
	for mask := 1; mask < p.size; mask <<= 1 {
		if p.rank&mask != 0 {
			sendWords(p, p.rank-mask, tagReduce, vec)
			break
		}
		if p.rank|mask < p.size {
			scratch = recvWords(p, p.rank|mask, tagReduce, scratch)
			combine(op, vec, scratch)
		}
	}
	mask := lowestRecvMask(p.rank, p.size)
	if p.rank != 0 {
		scratch = recvWords(p, p.rank-mask, tagBcast, scratch)
		copy(vec, scratch)
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if p.rank+m < p.size {
			sendWords(p, p.rank+m, tagBcast, vec)
		}
	}
	return scratch
}

// AllReduceScalarF64 is AllReduceF64 for a single value.
func (p *Proc) AllReduceScalarF64(op Op, v float64) float64 {
	return p.AllReduceF64(op, []float64{v})[0]
}

// AllReduceScalarI64 is AllReduceScalarF64 for an int64.
func (p *Proc) AllReduceScalarI64(op Op, v int64) int64 {
	acc := []int64{v}
	allReduceInto(p, op, acc, nil)
	return acc[0]
}

// AllToAllI32 sends send[r] to rank r for every r and returns the lists
// received, indexed by source rank. Each arrival is decoded into recv[src]'s
// backing array (grown as needed), and the result is recv itself (allocated
// unless recv has length Size), so a caller that hands the result back on
// the next call stops allocating once warm. The caller's own entry
// send[self] is passed through uncopied as the result's self entry. Sends
// are staged through the arena, so send may be reused as soon as the call
// returns. Every pair exchanges exactly one message, empty lists included,
// in ring order: send to rank+k, then receive from rank-k.
func (p *Proc) AllToAllI32(send, recv [][]int32) [][]int32 {
	return allToAll(p, send, recv)
}

// AllToAllF64 is AllToAllI32 for []float64 lists.
func (p *Proc) AllToAllF64(send, recv [][]float64) [][]float64 {
	return allToAll(p, send, recv)
}

// allToAll is the typed all-to-all ring, written once over the element
// type.
func allToAll[T word](p *Proc, send, recv [][]T) [][]T {
	if len(send) != p.size {
		panic(fmt.Sprintf("comm: all-to-all with %d lists on %d ranks", len(send), p.size))
	}
	if len(recv) != p.size {
		recv = make([][]T, p.size)
	}
	recv[p.rank] = send[p.rank]
	for k := 1; k < p.size; k++ {
		dst := (p.rank + k) % p.size
		sendWords(p, dst, tagAllToAll, send[dst])
	}
	for k := 1; k < p.size; k++ {
		src := (p.rank - k + p.size) % p.size
		recv[src] = recvWords(p, src, tagAllToAll, recv[src])
	}
	return recv
}
