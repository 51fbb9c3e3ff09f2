package loopir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// seqSumLoop is the sequential semantics of the Figure 10 template:
// f(jnb(k)) += x(jnb(k)) - x(i); f(i) += x(i) - x(jnb(k)).
func seqSumLoop(n int, ptr, jnb []int32, x []float64) []float64 {
	f := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			j := jnb[k]
			f[j] += x[j] - x[i]
			f[i] += x[i] - x[j]
		}
	}
	return f
}

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

// newFigure10Loop compiles the Figure 10 loop from its pair body or, with
// rows, from its row body.
func newFigure10Loop(prog *Program, ind *IndArray, x, f *RealArray, flops int, rows bool) *SumLoop {
	if rows {
		return prog.NewSumLoopRows(ind, x, f, flops, figure10Rows)
	}
	return prog.NewSumLoop(ind, x, f, flops, figure10Body)
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

func TestSumLoopMatchesSequential(t *testing.T) {
	const n = 120
	gptr, gvals := randCSR(n, 3, 7)
	x0 := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	want := seqSumLoop(n, gptr, gvals, x0)

	for _, nprocs := range []int{1, 2, 4} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(n)
			x := dec.AlignReal(1)
			f := dec.AlignReal(1)
			x.SetByGlobal(func(g int32, c []float64) { c[0] = x0[g] })
			ind := dec.AlignIndCSR()
			ptr, vals := localizeCSR(p, n, gptr, gvals)
			ind.SetCSR(ptr, vals)
			loop := prog.NewSumLoop(ind, x, f, 4, figure10Body)
			loop.Execute()
			for i, g := range dec.Globals() {
				if math.Abs(f.Local()[i]-want[g]) > 1e-12 {
					t.Errorf("nprocs=%d global %d: got %v want %v", nprocs, g, f.Local()[i], want[g])
				}
			}
		})
	}
}

func TestSumLoopReusesInspector(t *testing.T) {
	const n = 60
	gptr, gvals := randCSR(n, 2, 3)
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(1)
		f := dec.AlignReal(1)
		ind := dec.AlignIndCSR()
		ptr, vals := localizeCSR(p, n, gptr, gvals)
		ind.SetCSR(ptr, vals)
		loop := prog.NewSumLoop(ind, x, f, 4, figure10Body)

		loop.Execute()
		loop.Execute()
		loop.Execute()
		if loop.Inspections() != 1 {
			t.Errorf("inspector ran %d times for unchanged loop, want 1", loop.Inspections())
		}

		// Modifying the indirection array forces re-inspection.
		ind.SetCSR(ptr, vals)
		loop.Execute()
		if loop.Inspections() != 2 {
			t.Errorf("inspector did not detect indirection modification: %d", loop.Inspections())
		}

		// Redistribution forces re-inspection too.
		owners := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			owners[i] = int32((g + 1) % 2)
		}
		dec.Redistribute(owners)
		loop.Execute()
		if loop.Inspections() != 3 {
			t.Errorf("inspector did not detect redistribution: %d", loop.Inspections())
		}
	})
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

func TestSumLoopAfterRedistributeStillCorrect(t *testing.T) {
	const n = 80
	gptr, gvals := randCSR(n, 3, 17)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i) * 0.25
	}
	want := seqSumLoop(n, gptr, gvals, x0)
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(n)
		x := dec.AlignReal(1)
		f := dec.AlignReal(1)
		x.SetByGlobal(func(g int32, c []float64) { c[0] = x0[g] })
		ind := dec.AlignIndCSR()
		ptr, vals := localizeCSR(p, n, gptr, gvals)
		ind.SetCSR(ptr, vals)
		loop := prog.NewSumLoop(ind, x, f, 4, figure10Body)

		owners := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			owners[i] = int32((g * 7) % 3)
		}
		dec.Redistribute(owners)
		loop.Execute()
		for i, g := range dec.Globals() {
			if math.Abs(f.Local()[i]-want[g]) > 1e-12 {
				t.Errorf("global %d after redistribute: got %v want %v", g, f.Local()[i], want[g])
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

func TestMisalignedArraysPanic(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		d1 := prog.Decomposition(10)
		d2 := prog.Decomposition(10)
		x := d1.AlignReal(1)
		f := d2.AlignReal(1)
		ind := d1.AlignIndCSR()
		defer func() {
			if recover() == nil {
				t.Error("misaligned arrays did not panic")
			}
		}()
		prog.NewSumLoop(ind, x, f, 1, figure10Body)
	})
}

func TestSetCSRWrongLengthPanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(10)
		ind := dec.AlignIndCSR()
		defer func() {
			if recover() == nil {
				t.Error("bad CSR length did not panic")
			}
		}()
		ind.SetCSR(make([]int32, 3), nil)
	})
}

// TestSetCSRRejectsInconsistentRows: a row-pointer array that does not tile
// vals is refused where it is installed, with a message naming the row, not
// as an index panic (or silently dropped references) inside an executor.
func TestSetCSRRejectsInconsistentRows(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		ind := NewProgram(p).Decomposition(3).AlignIndCSR()
		vals := []int32{1, 2, 0, 1}
		for _, tc := range []struct {
			name string
			ptr  []int32
			want string
		}{
			{"first row not at 0", []int32{1, 2, 3, 4}, "loopir: CSR row 0 starts at 1"},
			{"decreasing entry", []int32{0, 3, 2, 4}, "loopir: CSR row 1 ends at 2, before its start 3"},
			{"trailing values", []int32{0, 1, 2, 3}, "loopir: CSR rows end at ptr[3] = 3, but there are 4 values"},
			{"rows past the values", []int32{0, 2, 4, 6}, "loopir: CSR rows end at ptr[3] = 6, but there are 4 values"},
		} {
			if got := panicMessage(func() { ind.SetCSR(tc.ptr, vals) }); !strings.HasPrefix(got, tc.want) {
				t.Errorf("%s: SetCSR panicked with %q, want %q", tc.name, got, tc.want)
			}
		}
		ind.SetCSR([]int32{0, 2, 2, 4}, vals) // an empty row is fine
	})
}

// TestRowLoopRejectsSelfPair: a row-constructed loop refuses a list with
// ind(k) == i at the inspection that localizes it — again after the list is
// adapted into one — while the pair-constructed loop runs the same list.
func TestRowLoopRejectsSelfPair(t *testing.T) {
	const n = 12
	for _, nprocs := range []int{1, 3} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			prog := NewProgram(p)
			dec := prog.Decomposition(n)
			x, f := dec.AlignReal(2), dec.AlignReal(2)
			ind := dec.AlignIndCSR()
			ptr := make([]int32, dec.NLocal()+1)
			clean := make([]int32, dec.NLocal())
			self := make([]int32, dec.NLocal())
			for i, g := range dec.Globals() {
				ptr[i+1] = int32(i + 1)
				clean[i] = (g + 1) % n
				self[i] = clean[i]
			}
			self[len(self)-1] = dec.Globals()[len(self)-1] // the last row names itself
			const want = "loopir: row-constructed SumLoop: ind(k) == i"

			ind.SetCSR(ptr, self)
			rows := prog.NewSumLoopRows(ind, x, f, 4, figure10Rows)
			if got := panicMessage(rows.Inspect); !strings.HasPrefix(got, want) {
				t.Errorf("nprocs=%d: Inspect over a self pair panicked with %q, want %q", nprocs, got, want)
			}
			prog.NewSumLoop(ind, x, f, 4, figure10Body).Execute() // legal for a pair body

			ind.SetCSR(ptr, clean)
			rows = prog.NewSumLoopRows(ind, x, f, 4, figure10Rows)
			rows.Execute()
			ind.SetCSR(ptr, self)
			if got := panicMessage(rows.Inspect); !strings.HasPrefix(got, want) {
				t.Errorf("nprocs=%d: Inspect after adapting to a self pair panicked with %q, want %q", nprocs, got, want)
			}
		})
	}
}

func TestFlatCSRMisusePanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		prog := NewProgram(p)
		dec := prog.Decomposition(4)
		flat := dec.AlignIndFlat(1)
		csr := dec.AlignIndCSR()
		for _, fn := range []func(){
			func() { flat.SetCSR(make([]int32, 5), nil) },
			func() { csr.SetFlat(make([]int32, 4)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("form misuse did not panic")
					}
				}()
				fn()
			}()
		}
	})
}
