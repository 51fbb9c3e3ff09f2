package schedule

import "fmt"

// Split is the schedule-build-time iteration classification the overlap
// executors consume: every iteration of a loop is interior (touches only
// owned slots, executable before the gather completes) or boundary (reads
// or writes at least one ghost slot, executable only after Wait). Boundary
// iterations are stored as CSR extents over the loop's outer rows, next to
// the schedule's send/recv lists; interior iterations need no storage — the
// executor skips boundary ones in place with the same ghost test used here.
//
// Building a Split charges no virtual time: overlap mode must keep modeled
// clocks bit-identical to blocking mode, so the classification cost is real
// (it shows in the measured inspector phase) but invisible to the model.
type Split struct {
	// BndPtr/BndIdx are CSR extents: the boundary iterations of outer row i
	// are BndIdx[BndPtr[i]:BndPtr[i+1]], in static iteration order. Flat
	// (single-row) loops use one row spanning every iteration.
	BndPtr []int32
	BndIdx []int32
	// NIter is the total number of iterations classified.
	NIter int
}

// Boundary returns how many iterations touch ghost slots.
func (sp *Split) Boundary() int { return len(sp.BndIdx) }

// Interior returns how many iterations touch only owned slots.
func (sp *Split) Interior() int { return sp.NIter - len(sp.BndIdx) }

// SplitCSR classifies the iterations of a CSR indirection loop over sp's
// storage (sp may be nil): iteration k of row i reads/writes the slot
// loc[k], and is boundary iff that slot is in the ghost section
// (>= nLocal). ptr has nRows+1 extents into loc. Returns sp (or a fresh
// Split), with storage reused across rebuilds.
func SplitCSR(sp *Split, ptr, loc []int32, nLocal int) *Split {
	nRows := len(ptr) - 1
	if nRows < 0 {
		panic("schedule: SplitCSR needs at least one CSR extent")
	}
	sp = resetSplit(sp, nRows, len(loc))
	for i := 0; i < nRows; i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if int(loc[k]) >= nLocal {
				sp.BndIdx = append(sp.BndIdx, k)
			}
		}
		sp.BndPtr[i+1] = int32(len(sp.BndIdx))
	}
	return sp
}

// SplitFlat classifies a flat two-indirection pair loop: iteration k touches
// the slots la[k] and lb[k], and is boundary iff either is a ghost slot.
// Stored as a single CSR row. Returns sp (or a fresh Split).
func SplitFlat(sp *Split, la, lb []int32, nLocal int) *Split {
	if len(la) != len(lb) {
		panic(fmt.Sprintf("schedule: SplitFlat over %d/%d iterations", len(la), len(lb)))
	}
	sp = resetSplit(sp, 1, len(la))
	for k := range la {
		if int(la[k]) >= nLocal || int(lb[k]) >= nLocal {
			sp.BndIdx = append(sp.BndIdx, int32(k))
		}
	}
	sp.BndPtr[1] = int32(len(sp.BndIdx))
	return sp
}

// resetSplit readies sp for nRows rows and nIter iterations, reusing its
// backing arrays.
func resetSplit(sp *Split, nRows, nIter int) *Split {
	if sp == nil {
		sp = &Split{}
	}
	if cap(sp.BndPtr) < nRows+1 {
		sp.BndPtr = make([]int32, nRows+1)
	}
	sp.BndPtr = sp.BndPtr[:nRows+1]
	sp.BndPtr[0] = 0
	sp.BndIdx = sp.BndIdx[:0]
	sp.NIter = nIter
	return sp
}
