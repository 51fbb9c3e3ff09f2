package loopir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// randCSR builds a random global CSR over n elements, rowsPer average
// entries per row.
func randCSR(n, rowsPer int, seed int64) (ptr, vals []int32) {
	rng := rand.New(rand.NewSource(seed))
	ptr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		deg := rng.Intn(2*rowsPer + 1)
		for d := 0; d < deg; d++ {
			vals = append(vals, int32(rng.Intn(n)))
		}
		ptr[i+1] = int32(len(vals))
	}
	return ptr, vals
}

// localizeCSR extracts the local slab of a global CSR for a BLOCK dist.
func localizeCSR(p *comm.Proc, n int, gptr, gvals []int32) (ptr, vals []int32) {
	lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
	ptr = make([]int32, hi-lo+1)
	for i := lo; i < hi; i++ {
		vals = append(vals, gvals[gptr[i]:gptr[i+1]]...)
		ptr[i-lo+1] = int32(len(vals))
	}
	return ptr, vals
}

func figure10Body(xi, xj, fi, fj []float64) {
	for c := range xi {
		fj[c] += xj[c] - xi[c]
		fi[c] += xi[c] - xj[c]
	}
}

// figure10Rows is figure10Body as a row body that keeps fi in locals from
// the row's first pair to its last — what a row-constructed loop may do, and
// wrong on a self pair. Widths up to 3.
func figure10Rows(xi, fi []float64, js []int32, xb, fb []float64) {
	w := len(xi)
	var acc [3]float64
	copy(acc[:], fi)
	for _, j := range js {
		xj, fj := xb[int(j)*w:][:w], fb[int(j)*w:][:w]
		for c := range xi {
			fj[c] += xj[c] - xi[c]
			acc[c] += xi[c] - xj[c]
		}
	}
	copy(fi, acc[:w])
}

// dropSelf returns the global CSR without its self pairs (vals[k] == row).
func dropSelf(ptr, vals []int32) (outPtr, outVals []int32) {
	outPtr = make([]int32, len(ptr))
	for i := 0; i+1 < len(ptr); i++ {
		for _, j := range vals[ptr[i]:ptr[i+1]] {
			if int(j) != i {
				outVals = append(outVals, j)
			}
		}
		outPtr[i+1] = int32(len(outVals))
	}
	return outPtr, outVals
}

// panicMessage runs fn and returns the message it panicked with ("" if it
// returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestRedistributeMovesAlignedArrays(t *testing.T) {
	const n = 40
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(2)
		x.SetByGlobal(func(g int32, c []float64) { c[0], c[1] = float64(g), float64(g)*10 })
		ind := dec.AlignIndFlat(1)
		vals := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			vals[i] = (g + 5) % n
		}
		ind.SetFlat(vals)

		owners := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			owners[i] = int32((g * 3) % 4)
		}
		dec.Redistribute(owners)

		for i, g := range dec.Globals() {
			if x.Local()[2*i] != float64(g) || x.Local()[2*i+1] != float64(g)*10 {
				t.Errorf("aligned real array wrong for global %d", g)
			}
			_, v := ind.CSR()
			if v[i] != (g+5)%n {
				t.Errorf("aligned indirection wrong for global %d: %d", g, v[i])
			}
		}
	})
}

func TestReduceAppend(t *testing.T) {
	const rows = 24
	const perRank = 30
	for _, nprocs := range []int{1, 2, 4} {
		// Sequential expectation: counts per row.
		wantCount := make([]int32, rows)
		rng := rand.New(rand.NewSource(5))
		dests := make([][]int32, nprocs)
		for r := 0; r < nprocs; r++ {
			dests[r] = make([]int32, perRank)
			for i := range dests[r] {
				dests[r][i] = int32(rng.Intn(rows))
				wantCount[dests[r][i]]++
			}
		}
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(rows)
			dest := dests[p.Rank()]
			recs := make([]float64, perRank*2)
			for i := 0; i < perRank; i++ {
				recs[2*i] = float64(p.Rank()*1000 + i)
				recs[2*i+1] = float64(dest[i])
			}
			recv, sizes := ReduceAppend(p, dec.Dist(), dest, recs, 2)
			// Every received record's destination row must be owned here.
			for i := 0; i*2 < len(recv); i++ {
				row := int(recv[2*i+1])
				if int(dec.Dist().TT().OwnerOf(row)) != p.Rank() {
					t.Errorf("nprocs=%d rank=%d received record for foreign row %d", nprocs, p.Rank(), row)
				}
			}
			// Sizes must match the global per-row counts.
			for i, g := range dec.Globals() {
				if sizes[i] != wantCount[g] {
					t.Errorf("nprocs=%d row %d size %d, want %d", nprocs, g, sizes[i], wantCount[g])
				}
			}
			// Total received records must equal the sum of owned sizes.
			var total int32
			for _, s := range sizes {
				total += s
			}
			if int(total)*2 != len(recv) {
				t.Errorf("nprocs=%d rank=%d: %d values received, sizes sum to %d", nprocs, p.Rank(), len(recv), total)
			}
		})
	}
}

// TestRefusals: what the compiled-loop API refuses, each with the message
// it panics with where the mistake is made (want "" is a case it accepts).
// The tests after it hold named rows of the same table.
func TestRefusals(t *testing.T) { refuse(t) }

func TestMisalignedArraysPanic(t *testing.T) {
	refuse(t, "SumLoop/misaligned arrays", "PairLoop/data on two decompositions")
}

func TestShareRejectsForeignDecomposition(t *testing.T) {
	refuse(t, "SumLoop/Share foreign decomposition", "PairLoop/Share foreign decomposition")
}

func TestPairLoopValidation(t *testing.T) {
	refuse(t, "PairLoop/CSR list", "PairLoop/two iteration decompositions", "PairLoop/data on two decompositions")
}

func TestFlatCSRMisusePanics(t *testing.T) { refuse(t, "SetCSR/flat list", "SetFlat/CSR list") }

func TestSetCSRWrongLengthPanics(t *testing.T) {
	refuse(t, "SetCSR/wrong length", "SetFlat/wrong length")
}

func TestSetCSRRejectsInconsistentRows(t *testing.T) {
	refuse(t, "SetCSR/first row not at 0", "SetCSR/decreasing entry", "SetCSR/trailing values",
		"SetCSR/rows past the values", "SetCSR/empty rows")
}

func TestRowLoopRejectsSelfPair(t *testing.T) { refuse(t, "NewSumLoopRows/self pair") }

// refuse runs the named rows of the refusal table (none named: every row).
func refuse(t *testing.T, names ...string) {
	ran := 0
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		d1, d2 := prog.Decomposition(4), prog.Decomposition(4)
		x, f := d1.AlignReal(1), d1.AlignReal(1)
		csr, flat := d1.AlignIndCSR(), d1.AlignIndFlat(1)
		csr2, flat2 := d2.AlignIndCSR(), d2.AlignIndFlat(1)
		vals := []int32{1, 2, 0, 1}
		sum := prog.NewSumLoop(csr, x, f, 1, figure10Body)
		pair := prog.NewPairLoop(flat2, flat2, x, f, 1, bondBody)
		for _, tc := range []struct {
			name string
			fn   func()
			want string
		}{
			{"SumLoop/flat list", func() { prog.NewSumLoop(flat, x, f, 1, figure10Body) }, "loopir: SumLoop requires a CSR indirection array"},
			{"SumLoop/misaligned arrays", func() { prog.NewSumLoop(csr, x, d2.AlignReal(1), 1, figure10Body) }, "loopir: SumLoop arrays must be aligned"},
			{"SumLoop/width mismatch", func() { prog.NewSumLoop(csr, x, d1.AlignReal(2), 1, figure10Body) }, "loopir: read width 1 != reduce width 2"},
			{"SumLoop/Share foreign decomposition", func() { sum.Share(prog.NewSharedSched(d2)) }, "loopir: SumLoop shared schedule must cover"},
			{"PairLoop/CSR list", func() { prog.NewPairLoop(csr2, flat2, x, f, 1, bondBody) }, "loopir: PairLoop requires flat width-1"},
			{"PairLoop/two iteration decompositions", func() { prog.NewPairLoop(flat2, flat, x, f, 1, bondBody) }, "loopir: PairLoop indirection arrays must share"},
			{"PairLoop/data on two decompositions", func() { prog.NewPairLoop(flat2, flat2, x, d2.AlignReal(1), 1, bondBody) }, "loopir: PairLoop data arrays must share"},
			{"PairLoop/Share foreign decomposition", func() { pair.Share(prog.NewSharedSched(d2)) }, "loopir: PairLoop shared schedule must cover"},
			{"fused loops on two groups", func() { ExecuteFusedSum([]*SumLoop{sum, prog.NewSumLoop(csr, x, f, 1, figure10Body)}) }, "loopir: fused loops must share one SharedSched"},
			{"SetCSR/flat list", func() { flat.SetCSR(make([]int32, 5), nil) }, "loopir: SetCSR on a flat indirection array"},
			{"SetCSR/wrong length", func() { csr.SetCSR(make([]int32, 3), nil) }, "loopir: CSR ptr length 3, want 5"},
			{"SetCSR/first row not at 0", func() { csr.SetCSR([]int32{1, 2, 3, 4, 4}, vals) }, "loopir: CSR row 0 starts at 1"},
			{"SetCSR/decreasing entry", func() { csr.SetCSR([]int32{0, 3, 2, 4, 4}, vals) }, "loopir: CSR row 1 ends at 2, before its start 3"},
			{"SetCSR/trailing values", func() { csr.SetCSR([]int32{0, 1, 2, 3, 3}, vals) }, "loopir: CSR rows end at ptr[4] = 3, but there are 4 values"},
			{"SetCSR/rows past the values", func() { csr.SetCSR([]int32{0, 2, 4, 6, 6}, vals) }, "loopir: CSR rows end at ptr[4] = 6, but there are 4 values"},
			{"SetCSR/empty rows", func() { csr.SetCSR([]int32{0, 2, 2, 4, 4}, vals) }, ""},
			{"NewSumLoopRows/self pair", func() {
				csr.SetCSR([]int32{0, 1, 1, 1, 1}, []int32{0})
				prog.NewSumLoopRows(csr, x, f, 1, figure10Rows).Inspect()
			}, "loopir: row-constructed SumLoop: ind(k) == i at global element 0"},
			{"SetFlat/CSR list", func() { csr.SetFlat(make([]int32, 4)) }, "loopir: SetFlat on a CSR indirection array"},
			{"SetFlat/wrong length", func() { flat.SetFlat(make([]int32, 3)) }, "loopir: flat length 3, want 4"},
		} {
			if names != nil && !slices.Contains(names, tc.name) {
				continue
			}
			ran++
			got := panicMessage(tc.fn)
			if tc.want == "" && got != "" || !strings.HasPrefix(got, tc.want) {
				t.Errorf("%s: panicked with %q, want %q", tc.name, got, tc.want)
			}
		}
	})
	if names != nil && ran != len(names) {
		t.Errorf("%d of the rows %q are in the refusal table", ran, names)
	}
}

// TestBoundaryList unit-tests the split-phase interior/boundary
// classification.
func TestBoundaryList(t *testing.T) {
	// 3 rows; nLocal=4 so slots 4,5 are ghosts.
	ptr := []int32{0, 2, 2, 5}
	loc := []int32{0, 4, 1, 5, 3}
	bp, bi := boundaryList(nil, nil, ptr, loc, 4)
	if !slices.Equal(bp, []int32{0, 1, 1, 2}) || !slices.Equal(bi, []int32{1, 3}) {
		t.Fatalf("boundary list bp=%v bi=%v, want [0 1 1 2] [1 3]", bp, bi)
	}

	// Rebuild into the same storage with different data.
	bp2, bi2 := boundaryList(bp, bi, []int32{0, 1}, []int32{2}, 4)
	if &bp2[0] != &bp[0] || !slices.Equal(bp2, []int32{0, 0}) || len(bi2) != 0 {
		t.Fatalf("boundary list reuse: bp=%v bi=%v", bp2, bi2)
	}
}
