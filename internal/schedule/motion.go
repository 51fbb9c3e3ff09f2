package schedule

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/recycle"
)

// Data transportation through a schedule has one implementation: a
// split-phase, multi-array core. start packs and sends (one message per
// peer covering every array, in ring order); Motion.Wait receives and
// places. Every exported primitive is a spelling of that pair:
//
//   - a gather places arriving values with OpReplace into the ghost
//     section; a scatter combines them with the caller's op into the owned
//     section — the same loops with the send and permutation lists swapped;
//   - a single-array call is a multi-array call of one;
//   - a blocking call is start(…).Wait(); a *Start call returns the same
//     motion unwaited. start's sends are the ordinary blocking ones, issued
//     early — no Transport.Send blocks indefinitely — so between Start and
//     Wait the frames wait in the receivers' transport mailboxes while the
//     rank computes on data the motion does not touch (interior iterations).
//
// Multi-array semantics are bit-identical to one call per array: the wire
// payload for each peer is the concatenation of the per-array payloads in
// argument order, so only the number of messages (and so the modeled
// latency) changes. This is the communication-vectorization transform of
// the compiler path (paper §4).
//
// Virtual-time contract: Start charges exactly what the blocking call's
// send half charges, and Wait is the blocking call's receive half. Modeled
// clocks are therefore bit-identical to the blocking collectives PROVIDED
// the caller issues no virtual-time charges (Compute*, sends, receives)
// between Start and Wait: overlapped real work is charged after Wait, at
// the position the blocking schedule would have charged it. The loopir
// executor follows this discipline; the chaosvet split-phase analyzer
// enforces the buffer-hazard half of it.

// CombineOp selects how Scatter combines incoming values with resident ones.
type CombineOp int

// Scatter combine operations.
const (
	OpReplace CombineOp = iota
	OpAdd
	OpMax
	OpMin
)

// Motion is one collective in flight. At most one motion can be in flight
// per schedule (the handle lives in the schedule so steady-state data
// motion allocates nothing); Wait is idempotent. The zero value is inert.
type Motion struct {
	p      *comm.Proc
	s      *Schedule
	datas  [][]float64
	widths []int
	op     CombineOp
	tag    int // tagGather or tagScatter: the motion's direction
	tot    int // float64 values one element contributes to a message
	active bool
}

// Active reports whether the motion has been started and not yet waited.
func (mo *Motion) Active() bool { return mo != nil && mo.active }

// check validates the parallel datas/widths argument lists and returns the
// number of float64 values one element contributes to a message.
func (s *Schedule) check(datas [][]float64, widths []int) int {
	if len(datas) != len(widths) {
		panic(fmt.Sprintf("schedule: %d buffers with %d widths", len(datas), len(widths)))
	}
	if len(datas) == 0 {
		panic("schedule: fused transport of zero buffers")
	}
	tot := 0
	for k, d := range datas {
		if widths[k] < 1 {
			panic(fmt.Sprintf("schedule: buffer %d has width %d", k, widths[k]))
		}
		if len(d) < s.minLen*widths[k] {
			panic(fmt.Sprintf("schedule: buffer of %d elements too short, need %d (width %d)", len(d), s.minLen*widths[k], widths[k]))
		}
		tot += widths[k]
	}
	return tot
}

// lists returns the element lists a motion packs from (toward peer r) and
// places into (from peer r). A gather reads the send list and fills the
// permutation list's ghost slots; a scatter is the reverse.
func (s *Schedule) lists(tag, r int) (pack, place []int32) {
	if tag == tagGather {
		return s.SendOffs(r), s.RecvSlots(r)
	}
	return s.RecvSlots(r), s.SendOffs(r)
}

// start is the send half of every collective: it claims the schedule's
// motion handle and sends each peer one message holding, array by array,
// the elements the schedule names. Packing stages through schedule-owned
// scratch and the wire bytes through the Proc send arena, so steady-state
// calls are allocation-free. tag is tagGather or tagScatter.
func (s *Schedule) start(p *comm.Proc, datas [][]float64, widths []int, tag int, op CombineOp) *Motion {
	tot := s.check(datas, widths)
	mo := &s.motion
	if mo.active {
		// Two concurrent motions would interleave on one tag and corrupt both.
		panic("schedule: a motion is already in flight on this schedule")
	}
	mo.p, mo.s, mo.datas, mo.widths, mo.op = p, s, datas, widths, op
	mo.tag, mo.tot, mo.active = tag, tot, true
	for k := 1; k < p.Size(); k++ {
		dst := (p.Rank() + k) % p.Size()
		idx, _ := s.lists(tag, dst)
		if len(idx) == 0 {
			continue
		}
		s.stageS = recycle.Sized(s.stageS, len(idx)*tot)
		buf := s.stageS
		at := 0
		for b, data := range datas {
			width := widths[b]
			sec := buf[at : at+len(idx)*width]
			at += len(sec)
			for i, e := range idx {
				copy(sec[i*width:], data[int(e)*width:int(e+1)*width])
			}
		}
		p.ComputeMem(len(buf))
		p.SendF64Buf(dst, tag, buf)
	}
	return mo
}

// startSplit is start for the *Start spellings. The caller's work between
// Start and Wait is uncharged, so the receive path's cached wall sample is
// dropped at issue: Wait's first receive then takes a fresh start reading
// instead of billing that work to Measured.CommWall. (start's own sends and
// packing drop it too, but a rank that sends nothing would keep it.)
func (s *Schedule) startSplit(p *comm.Proc, datas [][]float64, widths []int, tag int, op CombineOp) *Motion {
	p.InvalidateRecvSample()
	return s.start(p, datas, widths, tag, op)
}

// Wait completes the motion: it receives in ring order, placing or
// combining each message as it arrives (the combine switch is resolved once
// per message, not once per element). For a gather the ghost section of
// each data array is filled here; for a scatter the incoming contributions
// are combined into the owned section here. Calling Wait on a completed (or
// zero) motion is a no-op.
func (mo *Motion) Wait() {
	if mo == nil || !mo.active {
		return
	}
	p, s := mo.p, mo.s
	for k := 1; k < p.Size(); k++ {
		src := (p.Rank() - k + p.Size()) % p.Size()
		_, idx := s.lists(mo.tag, src)
		if len(idx) == 0 {
			continue
		}
		vals := p.RecvF64Into(src, mo.tag, s.stageR)
		s.stageR = vals
		if len(vals) != len(idx)*mo.tot {
			panic(fmt.Sprintf("schedule: motion from %d delivered %d values, want %d", src, len(vals), len(idx)*mo.tot))
		}
		at := 0
		for b, data := range mo.datas {
			width := mo.widths[b]
			sec := vals[at : at+len(idx)*width]
			at += len(sec)
			combine(mo.op, data, idx, sec, width)
		}
		p.ComputeMem(len(vals))
	}
	mo.p, mo.s, mo.datas, mo.widths = nil, nil, nil, nil
	s.one[0] = nil
	mo.active = false
}

// combine merges one received message section into data under op, with the
// op dispatched once per message (branch per message, not per element).
func combine(op CombineOp, data []float64, offs []int32, vals []float64, width int) {
	switch op {
	case OpReplace:
		for i, off := range offs {
			copy(data[int(off)*width:int(off+1)*width], vals[i*width:(i+1)*width])
		}
	case OpAdd:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	case OpMax:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				if src[j] > dst[j] {
					dst[j] = src[j]
				}
			}
		}
	case OpMin:
		for i, off := range offs {
			dst := data[int(off)*width : int(off+1)*width]
			src := vals[i*width : (i+1)*width]
			for j := range dst {
				if src[j] < dst[j] {
					dst[j] = src[j]
				}
			}
		}
	default:
		panic("schedule: unknown combine op")
	}
}

// single wraps one array as the schedule-owned 1-element argument lists.
func (s *Schedule) single(data []float64, width int) ([][]float64, []int) {
	s.one[0], s.oneW[0] = data, width
	return s.one[:], s.oneW[:]
}

// Gather fetches the off-processor elements named by the schedule into the
// ghost section of data: after the call, data[slot] holds the owner's value
// for every slot in the permutation lists. The owned section is read, the
// ghost section written. Collective.
func Gather(p *comm.Proc, s *Schedule, data []float64) { GatherW(p, s, data, 1) }

// GatherW is Gather for arrays with `width` float64 components per element
// (stored row-major: element i occupies data[i*width : (i+1)*width]).
// Steady-state calls are allocation-free.
func GatherW(p *comm.Proc, s *Schedule, data []float64, width int) {
	datas, widths := s.single(data, width)
	s.start(p, datas, widths, tagGather, OpReplace).Wait()
}

// Scatter pushes ghost-section values back to their owners, combining with
// op at the destination (the reverse of Gather). With OpAdd this implements
// the irregular reduction x(ia(i)) = x(ia(i)) + ... across processors.
// Collective.
func Scatter(p *comm.Proc, s *Schedule, data []float64, op CombineOp) { ScatterW(p, s, data, 1, op) }

// ScatterW is Scatter for width-component elements. Like GatherW it is
// allocation-free in steady state.
func ScatterW(p *comm.Proc, s *Schedule, data []float64, width int, op CombineOp) {
	datas, widths := s.single(data, width)
	s.start(p, datas, widths, tagScatter, op).Wait()
}

// GatherWMulti gathers the ghost sections of several width-component arrays
// through one schedule, sending one fused message per peer. Equivalent to
// calling GatherW(p, s, datas[k], widths[k]) for each k in order, with
// len(datas)× fewer messages. Collective.
func GatherWMulti(p *comm.Proc, s *Schedule, datas [][]float64, widths []int) {
	s.start(p, datas, widths, tagGather, OpReplace).Wait()
}

// ScatterWMulti scatters the ghost sections of several width-component
// arrays back to their owners through one schedule, combining each with op
// at the destination, with one fused message per peer. Equivalent to
// calling ScatterW(p, s, datas[k], widths[k], op) for each k in order, with
// len(datas)× fewer messages. Collective.
func ScatterWMulti(p *comm.Proc, s *Schedule, datas [][]float64, widths []int, op CombineOp) {
	s.start(p, datas, widths, tagScatter, op).Wait()
}

// GatherWStart begins a split-phase GatherW: the send half runs now (packing
// charges and per-message overheads identical to GatherW), the receive half
// runs at Wait. The owned section of data is read here and may be mutated
// after Start returns; the ghost section must not be read or written until
// Wait returns.
func GatherWStart(p *comm.Proc, s *Schedule, data []float64, width int) *Motion {
	datas, widths := s.single(data, width)
	return s.startSplit(p, datas, widths, tagGather, OpReplace)
}

// ScatterWStart begins a split-phase ScatterW: the ghost section of data is
// packed and sent now, the receive-combine into the owned section runs at
// Wait. The ghost section must be final before the call; the owned section
// may still be written between Start and Wait (local contributions finish
// while the wire is busy), because the blocking schedule's remote combines
// land after all local writes anyway.
func ScatterWStart(p *comm.Proc, s *Schedule, data []float64, width int, op CombineOp) *Motion {
	datas, widths := s.single(data, width)
	return s.startSplit(p, datas, widths, tagScatter, op)
}

// GatherWMultiStart is GatherWStart for the fused multi-array gather: one
// message per peer covering every array, receive half at Wait. The datas and
// widths slices are retained until Wait returns.
func GatherWMultiStart(p *comm.Proc, s *Schedule, datas [][]float64, widths []int) *Motion {
	return s.startSplit(p, datas, widths, tagGather, OpReplace)
}

// ScatterWMultiStart is ScatterWStart for the fused multi-array scatter. The
// datas and widths slices are retained until Wait returns.
func ScatterWMultiStart(p *comm.Proc, s *Schedule, datas [][]float64, widths []int, op CombineOp) *Motion {
	return s.startSplit(p, datas, widths, tagScatter, op)
}
