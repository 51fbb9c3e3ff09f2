package comm

import (
	"encoding/binary"
	"fmt"
)

// Reserved tags for collectives. User point-to-point tags must stay below
// tagCollBase. Because every collective is invoked in the same global order
// by all SPMD ranks and per-pair delivery is FIFO, a fixed tag per
// collective type is unambiguous.
const (
	tagCollBase  = 1 << 24
	tagBarrier   = tagCollBase + 0
	tagBcast     = tagCollBase + 1
	tagGather    = tagCollBase + 2
	tagReduce    = tagCollBase + 3
	tagAllToAll  = tagCollBase + 4
	tagAllGather = tagCollBase + 5
)

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

// Broadcast distributes data from root to all ranks along a binomial tree
// and returns it. Non-root callers pass nil.
func (p *Proc) Broadcast(root int, data []byte) []byte {
	if p.size == 1 {
		return data
	}
	rel := (p.rank - root + p.size) % p.size
	mask := lowestRecvMask(rel, p.size)
	if rel != 0 {
		src := (rel - mask + root) % p.size
		data = p.Recv(src, tagBcast)
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if rel+m < p.size {
			dst := (rel + m + root) % p.size
			p.Send(dst, tagBcast, data)
		}
	}
	return data
}

// frameAppend appends one (rank, payload) record to a gather frame.
func frameAppend(frame []byte, rank int, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(rank))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	frame = append(frame, hdr[:]...)
	return append(frame, payload...)
}

// frameDecode splits a gather frame into per-rank payloads.
func frameDecode(frame []byte, size int) [][]byte {
	out := make([][]byte, size)
	for off := 0; off < len(frame); {
		rank := int(binary.LittleEndian.Uint32(frame[off:]))
		n := int(binary.LittleEndian.Uint32(frame[off+4:]))
		off += 8
		if rank < 0 || rank >= size {
			panic(fmt.Sprintf("comm: gather frame names rank %d of %d", rank, size))
		}
		out[rank] = frame[off : off+n : off+n]
		off += n
	}
	return out
}

// Gather collects each rank's payload at root along a binomial tree. At
// root the result is indexed by rank (the root's own entry aliases data);
// other ranks get nil.
func (p *Proc) Gather(root int, data []byte) [][]byte {
	if p.size == 1 {
		return [][]byte{data}
	}
	rel := (p.rank - root + p.size) % p.size
	frame := frameAppend(nil, p.rank, data)
	for mask := 1; mask < p.size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p.size
			p.Send(dst, tagGather, frame)
			return nil
		}
		if rel|mask < p.size {
			src := (rel | mask + root) % p.size
			frame = append(frame, p.Recv(src, tagGather)...)
		}
	}
	out := frameDecode(frame, p.size)
	out[p.rank] = data
	return out
}

// AllGather collects every rank's payload on every rank, indexed by rank.
func (p *Proc) AllGather(data []byte) [][]byte {
	if p.size == 1 {
		return [][]byte{data}
	}
	rel := p.rank // root 0
	frame := frameAppend(nil, p.rank, data)
	for mask := 1; mask < p.size; mask <<= 1 {
		if rel&mask != 0 {
			p.Send(rel-mask, tagAllGather, frame)
			frame = nil
			break
		}
		if rel|mask < p.size {
			frame = append(frame, p.Recv(rel|mask, tagAllGather)...)
		}
	}
	frame = p.Broadcast(0, frame)
	out := frameDecode(frame, p.size)
	out[p.rank] = data
	return out
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
	if p.size == 1 {
		return scratch
	}
	// Binomial reduce to rank 0; vec accumulates in place.
	for mask := 1; mask < p.size; mask <<= 1 {
		if p.rank&mask != 0 {
			p.SendF64Buf(p.rank-mask, tagReduce, vec)
			break
		}
		if p.rank|mask < p.size {
			scratch = p.RecvF64Into(p.rank|mask, tagReduce, scratch)
			combine(op, vec, scratch)
		}
	}
	// Broadcast the result along the same binomial tree as Broadcast
	// (root 0), overwriting vec on every non-root rank.
	mask := lowestRecvMask(p.rank, p.size)
	if p.rank != 0 {
		scratch = p.RecvF64Into(p.rank-mask, tagBcast, scratch)
		copy(vec, scratch)
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if p.rank+m < p.size {
			p.SendF64Buf(p.rank+m, tagBcast, vec)
		}
	}
	return scratch
}

// AllReduceI64 combines vec element-wise across all ranks with op and
// returns the result on every rank. vec is not modified.
func (p *Proc) AllReduceI64(op Op, vec []int64) []int64 {
	acc := make([]int64, len(vec))
	copy(acc, vec)
	if p.size == 1 {
		return acc
	}
	for mask := 1; mask < p.size; mask <<= 1 {
		if p.rank&mask != 0 {
			p.SendI64(p.rank-mask, tagReduce, acc)
			acc = nil
			break
		}
		if p.rank|mask < p.size {
			combine(op, acc, p.RecvI64(p.rank|mask, tagReduce))
		}
	}
	var buf []byte
	if p.rank == 0 {
		buf = EncodeI64(acc)
	}
	return DecodeI64(p.Broadcast(0, buf))
}

// AllReduceScalarF64 is AllReduceF64 for a single value.
func (p *Proc) AllReduceScalarF64(op Op, v float64) float64 {
	return p.AllReduceF64(op, []float64{v})[0]
}

// AllReduceScalarI64 is AllReduceI64 for a single value.
func (p *Proc) AllReduceScalarI64(op Op, v int64) int64 {
	return p.AllReduceI64(op, []int64{v})[0]
}

// ExScanI64 returns the exclusive prefix sum of v over ranks: the sum of v
// on all ranks with smaller rank (0 on rank 0), plus the global total.
func (p *Proc) ExScanI64(v int64) (before, total int64) {
	all := p.AllGather(EncodeI64([]int64{v}))
	for r, b := range all {
		x := DecodeI64(b)[0]
		if r < p.rank {
			before += x
		}
		total += x
	}
	return before, total
}

// AllToAll exchanges bufs[r] to rank r for every r and returns the buffers
// received, indexed by source rank. bufs[self] is passed through untouched
// (and may be nil). bufs must have length Size. Each bufs[r] is handed to
// Send as is, so Send's ownership rule applies: the payloads belong to the
// receivers afterwards and must not be written or recycled (the bufs header
// slice itself is only read during the call and may be reused).
func (p *Proc) AllToAll(bufs [][]byte) [][]byte {
	if len(bufs) != p.size {
		panic(fmt.Sprintf("comm: AllToAll with %d buffers on %d ranks", len(bufs), p.size))
	}
	out := make([][]byte, p.size)
	out[p.rank] = bufs[p.rank]
	for k := 1; k < p.size; k++ {
		dst := (p.rank + k) % p.size
		p.Send(dst, tagAllToAll, bufs[dst])
	}
	for k := 1; k < p.size; k++ {
		src := (p.rank - k + p.size) % p.size
		out[src] = p.Recv(src, tagAllToAll)
	}
	return out
}
