package fortd

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// bondedSrc is the Figure 2 bonded-force template (loop L2) in the fortd
// dialect: iterations over the bond list, data accessed through two flat
// indirection arrays.
const bondedSrc = `
C Bonded force calculation loop of CHARMM (paper Figure 2, loop L2)
      DECOMPOSITION atoms(50)
      DECOMPOSITION bonds(70)
      REAL x(atoms,2), bf(atoms,2)
      INDIRECTION ibond(bonds) WIDTH 1
      INDIRECTION jbond(bonds) WIDTH 1

      FORALL k IN bonds
        REDUCE(SUM, bf(ibond(k)), x(ibond(k)) - x(jbond(k)))
        REDUCE(SUM, bf(jbond(k)), x(jbond(k)) - x(ibond(k)))
      END FORALL
`

func TestCompileBondedTemplate(t *testing.T) {
	prog, err := Compile(bondedSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ir.ofKind(loopPair)) != 1 || prog.NumSumLoops() != 0 || len(prog.ir.ofKind(loopAppend)) != 0 {
		t.Errorf("loop classification: pair=%d sum=%d append=%d",
			len(prog.ir.ofKind(loopPair)), prog.NumSumLoops(), len(prog.ir.ofKind(loopAppend)))
	}
}

// seqBonded is the sequential meaning of bondedSrc.
func seqBonded(nAtoms, width int, gi, gj []int32, x []float64) []float64 {
	f := make([]float64, nAtoms*width)
	for k := range gi {
		i, j := int(gi[k]), int(gj[k])
		for c := 0; c < width; c++ {
			f[i*width+c] += x[i*width+c] - x[j*width+c]
			f[j*width+c] += x[j*width+c] - x[i*width+c]
		}
	}
	return f
}

func TestBondedTemplateExecutes(t *testing.T) {
	const nAtoms = 50
	const nBonds = 70
	const width = 2
	gi := make([]int32, nBonds)
	gj := make([]int32, nBonds)
	for k := range gi {
		gi[k] = int32((k * 3) % nAtoms)
		gj[k] = int32((k*3 + 1) % nAtoms)
	}
	x0 := make([]float64, nAtoms*width)
	for i := range x0 {
		x0[i] = float64(i) * 0.3
	}
	want := seqBonded(nAtoms, width, gi, gj, x0)

	prog, err := Compile(bondedSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, nprocs := range []int{1, 2, 4} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			in := prog.Instantiate(p)
			in.Real("x").SetByGlobal(func(g int32, c []float64) {
				copy(c, x0[int(g)*width:(int(g)+1)*width])
			})
			lo, hi := partition.BlockRange(p.Rank(), nBonds, p.Size())
			in.ind("ibond").SetFlat(append([]int32(nil), gi[lo:hi]...))
			in.ind("jbond").SetFlat(append([]int32(nil), gj[lo:hi]...))
			in.Step()
			in.Step() // accumulates twice
			bf := in.Real("bf")
			for i, g := range in.Decomposition("atoms").Globals() {
				for c := 0; c < width; c++ {
					got := bf.Local()[i*width+c]
					if math.Abs(got-2*want[int(g)*width+c]) > 1e-12 {
						t.Errorf("nprocs=%d g=%d c=%d: got %v want %v", nprocs, g, c, got, 2*want[int(g)*width+c])
					}
				}
			}
			if got := in.loops[in.prog.ir.ofKind(loopPair)[0].ord].Inspections(); got != 1 {
				t.Errorf("pair inspections = %d after two unchanged steps", got)
			}
		})
	}
}

func TestPairFormErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"direct subscript", `DECOMPOSITION a(4)
DECOMPOSITION b(4)
REAL x(a), f(a)
INDIRECTION d(b) WIDTH 1
FORALL k IN b
 REDUCE(SUM, f(k), x(d(k)))
END FORALL`, "must go through an indirection"},
		{"three indirections", `DECOMPOSITION a(4)
DECOMPOSITION b(4)
REAL x(a), f(a)
INDIRECTION d1(b) WIDTH 1
INDIRECTION d2(b) WIDTH 1
INDIRECTION d3(b) WIDTH 1
FORALL k IN b
 REDUCE(SUM, f(d1(k)), x(d2(k)) + x(d3(k)))
END FORALL`, "at most two indirections"},
		{"csr in pair form", `DECOMPOSITION a(4)
DECOMPOSITION b(4)
REAL x(a), f(a)
INDIRECTION d(b) CSR
FORALL k IN b
 REDUCE(SUM, f(d(k)), x(d(k)))
END FORALL`, "must be flat"},
		{"mixed data decs", `DECOMPOSITION a(4)
DECOMPOSITION a2(4)
DECOMPOSITION b(4)
REAL x(a), f(a2)
INDIRECTION d(b) WIDTH 1
FORALL k IN b
 REDUCE(SUM, f(d(k)), x(d(k)))
END FORALL`, "span decompositions"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("%s: compiled without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCharmmFullProgramBothLoops(t *testing.T) {
	// A program combining the bonded (pair) and non-bonded (CSR sum)
	// templates over the same atom decomposition, as in Figure 2.
	src := `
DECOMPOSITION atoms(40)
DECOMPOSITION bonds(30)
REAL x(atoms), bf(atoms), nbf(atoms)
INDIRECTION ib(bonds) WIDTH 1
INDIRECTION jb(bonds) WIDTH 1
INDIRECTION jnb(atoms) CSR

FORALL k IN bonds
  REDUCE(SUM, bf(ib(k)), x(ib(k)) - x(jb(k)))
  REDUCE(SUM, bf(jb(k)), x(jb(k)) - x(ib(k)))
END FORALL

FORALL i IN atoms
  FORALL j IN jnb(i)
    REDUCE(SUM, nbf(i), x(jnb(j)) - x(i))
  END FORALL
END FORALL
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ir.ofKind(loopPair)) != 1 || prog.NumSumLoops() != 1 {
		t.Fatalf("classification: pair=%d sum=%d", len(prog.ir.ofKind(loopPair)), prog.NumSumLoops())
	}
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		in.Real("x").SetByGlobal(func(g int32, c []float64) { c[0] = float64(g) })
		bonds := in.Decomposition("bonds")
		gi := make([]int32, bonds.NLocal())
		gj := make([]int32, bonds.NLocal())
		for i, g := range bonds.Globals() {
			gi[i] = g % 40
			gj[i] = (g + 7) % 40
		}
		in.ind("ib").SetFlat(gi)
		in.ind("jb").SetFlat(gj)
		atoms := in.Decomposition("atoms")
		ptr := make([]int32, atoms.NLocal()+1)
		var vals []int32
		for i, g := range atoms.Globals() {
			vals = append(vals, (g+1)%40)
			ptr[i+1] = int32(len(vals))
		}
		in.ind("jnb").SetCSR(ptr, vals)
		in.Step()
		// Spot-check the non-bonded loop: nbf(g) = x(g+1 mod 40) - x(g).
		for i, g := range atoms.Globals() {
			want := float64((g+1)%40) - float64(g)
			if math.Abs(in.Real("nbf").Local()[i]-want) > 1e-12 {
				t.Errorf("nbf(%d) = %v, want %v", g, in.Real("nbf").Local()[i], want)
			}
		}
	})
}
