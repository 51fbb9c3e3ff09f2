package fortd

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// charmmSrc is the Figure 10 non-bonded loop in the fortd dialect.
const charmmSrc = `
C Non-bonded force calculation loop of CHARMM (paper Figure 10)
      DECOMPOSITION reg(60)
      DISTRIBUTE reg(MAP)
      REAL x(reg,2), dx(reg,2)
      INDIRECTION jnb(reg) CSR

      FORALL i IN reg
        FORALL j IN jnb(i)
          REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))
          REDUCE(SUM, dx(i), x(i) - x(jnb(j)))
        END FORALL
      END FORALL
`

// dsmcSrc is the Figure 9/11 particle movement loop in the fortd dialect.
const dsmcSrc = `
! DSMC particle movement (paper Figures 9 and 11)
DECOMPOSITION cells(24)
DECOMPOSITION parts(96)
REAL vel(parts,3)
INDIRECTION icell(parts) WIDTH 1

FORALL i IN parts
  REDUCE(APPEND, cells(icell(i)), vel(i))
END FORALL
`

func TestCompilePaperPrograms(t *testing.T) {
	for name, src := range map[string]string{"charmm": charmmSrc, "dsmc": dsmcSrc} {
		if _, err := Compile(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared decomp", "REAL x(reg)", "undeclared decomposition"},
		{"dup name", "DECOMPOSITION a(4)\nDECOMPOSITION a(4)", "already declared"},
		{"bad dist", "DECOMPOSITION a(4)\nDISTRIBUTE a(SPIRAL)", "unsupported distribution"},
		{"bad size", "DECOMPOSITION a(0)", "bad decomposition size"},
		{"forall undeclared", "REAL x(a)", "undeclared decomposition"},
		{"forall over unknown", `DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
FORALL i IN nowhere
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(i))
 END FORALL
END FORALL`, "undeclared decomposition"},
		{"flat inner", "DECOMPOSITION a(4)\nINDIRECTION d(a) WIDTH 1\nREAL x(a), f(a)\nFORALL i IN a\n FORALL j IN d(i)\n  REDUCE(SUM, f(i), x(i))\n END FORALL\nEND FORALL", "requires a CSR"},
		{"two read arrays", `DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a), y(a), f(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(i) + y(i))
 END FORALL
END FORALL`, "single read array"},
		{"read equals reduce", `DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, x(i), x(i))
 END FORALL
END FORALL`, "both read and reduced"},
		{"width mismatch", `DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a,2), f(a,3)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(i))
 END FORALL
END FORALL`, "differ"},
		{"foreign subscript var", `DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(k), x(i))
 END FORALL
END FORALL`, "outer variable"},
		{"append csr dest", `DECOMPOSITION c(4)
DECOMPOSITION p(8)
REAL v(p)
INDIRECTION d(p) CSR
FORALL i IN p
 REDUCE(APPEND, c(d(i)), v(i))
END FORALL`, "WIDTH 1"},
		{"wide flat indirection", "DECOMPOSITION atoms(40)\nINDIRECTION p(atoms) WIDTH 2",
			`fortd: <input>:2:28: flat INDIRECTION must have WIDTH 1, found "2"`},
		{"one indirection, two index spaces", `DECOMPOSITION c(4)
DECOMPOSITION a(9)
DECOMPOSITION p(8)
REAL v(p), x(a), f(a)
INDIRECTION d(p) WIDTH 1
FORALL i IN p
 REDUCE(APPEND, c(d(i)), v(i))
END FORALL
FORALL i IN p
 REDUCE(SUM, f(d(i)), x(d(i)))
END FORALL`, `fortd: <input>:9:1: indirection "d" indexes "a" here but "c" in an earlier FORALL`},
		{"bad char", "DECOMPOSITION a(4) @", "unexpected character"},
		// The source is UTF-8 and columns count runes: a non-ASCII letter is
		// one unexpected character at its own column, never an identifier.
		{"non-ASCII letter", "DECOMPOSITION é(4)", `fortd: <input>:1:15: unexpected character 'é'`},
		{"non-ASCII letter that is two Latin-1 letters", "DECOMPOSITION ĵ(4)", `fortd: <input>:1:15: unexpected character 'ĵ'`},
		{"column after a multibyte rune", "DECOMPOSITION a(4) ! ü\nREAL x(a) ü", `fortd: <input>:2:11: unexpected character 'ü'`},
		{"append dest subscript", appendSrc("c(d(k)), v(i)"),
			`fortd: <input>:6:19: indirection subscript must be d(i)`},
		{"append src subscript", appendSrc("c(d(i)), v(zz)"),
			`fortd: <input>:6:28: direct subscript must be the outer variable "i", found "zz"`},
		{"append direct dest", appendSrc("c(i), v(i)"),
			`fortd: <input>:6:19: REDUCE(APPEND) destination must be subscripted through an indirection array`},
		{"append indirect src", appendSrc("c(d(i)), v(d(i))"),
			`fortd: <input>:6:28: record array "v" must be subscripted directly by "i"`},
		// One level past maxExprDepth fails at the token that opens it,
		// however deep the input goes.
		{"deep parentheses", sumSrc(strings.Repeat("(", 1_000_000) + "x(i"),
			`fortd: <input>:6:277: expression nested deeper than 256`},
		{"deep unary minus", sumSrc(strings.Repeat("-", 1_000_000) + "x(i)"),
			`fortd: <input>:6:277: expression nested deeper than 256`},
		{"long chain", sumSrc(strings.Repeat("x(i) + ", 300) + "x(i)"),
			`fortd: <input>:6:1818: expression nested deeper than 256`},
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

// TestDeepInputStaysSmall holds the front end to the tokens it looks at:
// TestCompileErrors' million-level inputs fail 257 levels in, so compiling
// one allocates a few KB (2–8 KB when the bound was set), not a token per
// character of the input (over 200 MB when the lexer built them all first).
func TestDeepInputStaysSmall(t *testing.T) {
	for _, src := range []string{
		sumSrc(strings.Repeat("(", 1_000_000) + "x(i"),
		sumSrc(strings.Repeat("-", 1_000_000) + "x(i)"),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Compile(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%.20q...: compiled without error", src[len(src)/2:])
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%.20q...: compiling %d bytes allocated %d bytes, want at most 64 KB", src[len(src)/2:], len(src), got)
		}
	}
}

// sumSrc is a sum loop reducing value into f.
func sumSrc(value string) string {
	return "DECOMPOSITION a(4)\nINDIRECTION nb(a) CSR\nREAL x(a), f(a)\nFORALL i IN a\n FORALL j IN nb(i)\n" +
		"  REDUCE(SUM, f(i), " + value + ")\n END FORALL\nEND FORALL"
}

// appendSrc is an append loop whose REDUCE(APPEND, ...) arguments are args.
func appendSrc(args string) string {
	return "DECOMPOSITION c(4)\nDECOMPOSITION p(8)\nREAL v(p)\nINDIRECTION d(p) WIDTH 1\n" +
		"FORALL i IN p\n REDUCE(APPEND, " + args + ")\nEND FORALL"
}

func TestLexerComments(t *testing.T) {
	src := "C full-line comment\n      DECOMPOSITION a(4) ! trailing\n* star comment\n"
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumLoops() != 0 {
		t.Errorf("NumLoops = %d", prog.NumLoops())
	}
}

// seqFigure10 is the sequential meaning of charmmSrc.
func seqFigure10(n, width int, gptr, gjnb []int32, x []float64) []float64 {
	f := make([]float64, n*width)
	for i := 0; i < n; i++ {
		for k := gptr[i]; k < gptr[i+1]; k++ {
			j := int(gjnb[k])
			for c := 0; c < width; c++ {
				f[j*width+c] += x[j*width+c] - x[i*width+c]
				f[i*width+c] += x[i*width+c] - x[j*width+c]
			}
		}
	}
	return f
}

func TestCharmmLoopExecutesCorrectly(t *testing.T) {
	const n = 60
	const width = 2
	rng := rand.New(rand.NewSource(11))
	gptr := make([]int32, n+1)
	var gjnb []int32
	for i := 0; i < n; i++ {
		for d := 0; d < rng.Intn(5); d++ {
			gjnb = append(gjnb, int32(rng.Intn(n)))
		}
		gptr[i+1] = int32(len(gjnb))
	}
	x0 := make([]float64, n*width)
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	want := seqFigure10(n, width, gptr, gjnb, x0)

	prog, err := Compile(charmmSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, nprocs := range []int{1, 2, 4} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			in := prog.Instantiate(p)
			in.Real("x").SetByGlobal(func(g int32, c []float64) {
				copy(c, x0[int(g)*width:(int(g)+1)*width])
			})
			lo, hi := partition.BlockRange(p.Rank(), n, p.Size())
			ptr := make([]int32, hi-lo+1)
			var vals []int32
			for i := lo; i < hi; i++ {
				vals = append(vals, gjnb[gptr[i]:gptr[i+1]]...)
				ptr[i-lo+1] = int32(len(vals))
			}
			in.ind("jnb").SetCSR(ptr, vals)
			in.Step()
			dx := in.Real("dx")
			for i, g := range in.Decomposition("reg").Globals() {
				for c := 0; c < width; c++ {
					got := dx.Local()[i*width+c]
					if math.Abs(got-want[int(g)*width+c]) > 1e-12 {
						t.Errorf("nprocs=%d g=%d c=%d: got %v want %v", nprocs, g, c, got, want[int(g)*width+c])
					}
				}
			}
		})
	}
}

func TestRedistributeAndInspectorReuse(t *testing.T) {
	prog, err := Compile(charmmSrc)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		dec := in.Decomposition("reg")
		ptr := make([]int32, dec.NLocal()+1)
		var vals []int32
		for i, g := range dec.Globals() {
			vals = append(vals, (g+1)%60)
			ptr[i+1] = int32(len(vals))
		}
		in.ind("jnb").SetCSR(ptr, vals)

		in.Step()
		in.Step()
		if got := in.Inspections(0); got != 1 {
			t.Errorf("inspections after two unchanged steps = %d, want 1", got)
		}
		owners := make([]int32, dec.NLocal())
		for i, g := range dec.Globals() {
			owners[i] = int32((g / 3) % 2)
		}
		in.Redistribute("reg", owners)
		in.Step()
		if got := in.Inspections(0); got != 2 {
			t.Errorf("inspections after redistribute = %d, want 2", got)
		}
	})
}

func TestRedistributeWithoutMapPanics(t *testing.T) {
	prog, err := Compile(dsmcSrc)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		defer func() {
			if recover() == nil {
				t.Error("redistribute of BLOCK-only decomposition did not panic")
			}
		}()
		in.Redistribute("cells", make([]int32, in.Decomposition("cells").NLocal()))
	})
}

func TestAppendLoopExecutes(t *testing.T) {
	prog, err := Compile(dsmcSrc)
	if err != nil {
		t.Fatal(err)
	}
	const nCells = 24
	const nParts = 96
	wantCount := make([]int32, nCells)
	for g := 0; g < nParts; g++ {
		wantCount[(g*7)%nCells]++
	}
	for _, nprocs := range []int{1, 3} {
		comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			in := prog.Instantiate(p)
			parts := in.Decomposition("parts")
			dest := make([]int32, parts.NLocal())
			for i, g := range parts.Globals() {
				dest[i] = (g * 7) % nCells
			}
			in.ind("icell").SetFlat(dest)
			in.Real("vel").SetByGlobal(func(g int32, c []float64) {
				c[0], c[1], c[2] = float64(g), float64(g)*2, float64(g)*3
			})
			results := in.Step()
			if len(results) != 1 {
				t.Fatalf("nprocs=%d: %d append results, want 1", nprocs, len(results))
			}
			res := results[0]
			cells := in.Decomposition("cells")
			for i, g := range cells.Globals() {
				if res.sizes[i] != wantCount[g] {
					t.Errorf("nprocs=%d cell %d size %d, want %d", nprocs, g, res.sizes[i], wantCount[g])
				}
			}
			// Each record must carry consistent components (g, 2g, 3g).
			for k := 0; k*3 < len(res.Records); k++ {
				g := res.Records[3*k]
				if res.Records[3*k+1] != 2*g || res.Records[3*k+2] != 3*g {
					t.Errorf("nprocs=%d record %d corrupted: %v", nprocs, k, res.Records[3*k:3*k+3])
				}
			}
		})
	}
}

func TestExpressionEvaluation(t *testing.T) {
	src := `
DECOMPOSITION a(8)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), 2 * x(nb(j)) + x(i) / 4 - (1 - x(i)) * 3)
 END FORALL
END FORALL
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		in.Real("x").SetByGlobal(func(g int32, c []float64) { c[0] = float64(g) })
		ptr := make([]int32, 9)
		var vals []int32
		for i := 0; i < 8; i++ {
			vals = append(vals, int32((i+1)%8))
			ptr[i+1] = int32(len(vals))
		}
		in.ind("nb").SetCSR(ptr, vals)
		in.Step()
		for i := 0; i < 8; i++ {
			xi := float64(i)
			xj := float64((i + 1) % 8)
			want := 2*xj + xi/4 - (1-xi)*3
			got := in.Real("f").Local()[i]
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("f(%d) = %v, want %v", i, got, want)
			}
		}
	})
}

func TestNegationAndPrecedence(t *testing.T) {
	src := `
DECOMPOSITION a(4)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), -x(i) + 2 * 3)
 END FORALL
END FORALL
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		in.Real("x").SetByGlobal(func(g int32, c []float64) { c[0] = 10 })
		ptr := []int32{0, 1, 2, 3, 4}
		in.ind("nb").SetCSR(ptr, []int32{0, 1, 2, 3})
		in.Step()
		for i := 0; i < 4; i++ {
			if got := in.Real("f").Local()[i]; got != -4 { // -10 + 6
				t.Errorf("f(%d) = %v, want -4", i, got)
			}
		}
	})
}

func TestIntrospection(t *testing.T) {
	prog, err := Compile(charmmSrc + dsmcSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.RealNames(); len(got) != 3 || got[0] != "dx" || got[1] != "vel" || got[2] != "x" {
		t.Errorf("RealNames = %v", got)
	}
	inds := prog.ir.syms.inds
	if len(inds) != 2 || inds["icell"] == nil || inds["jnb"] == nil {
		t.Errorf("indirection arrays = %v", inds)
	}
	if got := prog.ir.syms.decomps; len(got) != 3 {
		t.Errorf("decompositions = %v", got)
	}
	if got := prog.MapDecompositions(); len(got) != 1 || got[0] != "reg" {
		t.Errorf("MapDecompositions = %v", got)
	}
	if !inds["jnb"].csr || inds["icell"].csr {
		t.Error("CSR form misclassified")
	}
	if inds["jnb"].decomp != "reg" || inds["icell"].decomp != "parts" {
		t.Error("aligned decomposition wrong")
	}
	if prog.indTargetN("jnb") != 60 {
		t.Errorf("IndTargetN(jnb) = %d", prog.indTargetN("jnb"))
	}
	if prog.indTargetN("icell") != 24 { // append target decomposition
		t.Errorf("IndTargetN(icell) = %d", prog.indTargetN("icell"))
	}
	if prog.NumSumLoops() != 1 || len(prog.ir.ofKind(loopAppend)) != 1 || prog.NumLoops() != 2 {
		t.Errorf("loop counts: sum=%d append=%d total=%d",
			prog.NumSumLoops(), len(prog.ir.ofKind(loopAppend)), prog.NumLoops())
	}
}

func TestCyclicDistribution(t *testing.T) {
	src := `
DECOMPOSITION a(9)
DISTRIBUTE a(CYCLIC)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(nb(j)))
 END FORALL
END FORALL
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := prog.Instantiate(p)
		dec := in.Decomposition("a")
		for _, g := range dec.Globals() {
			if int(g)%3 != p.Rank() {
				t.Errorf("rank %d owns global %d under CYCLIC", p.Rank(), g)
			}
		}
		in.Real("x").SetByGlobal(func(g int32, c []float64) { c[0] = float64(g) })
		ptr := make([]int32, dec.NLocal()+1)
		var vals []int32
		for i, g := range dec.Globals() {
			vals = append(vals, (g+1)%9)
			ptr[i+1] = int32(len(vals))
		}
		in.ind("nb").SetCSR(ptr, vals)
		in.Step()
		for i, g := range dec.Globals() {
			want := float64((g + 1) % 9)
			if math.Abs(in.Real("f").Local()[i]-want) > 1e-12 {
				t.Errorf("f(%d) = %v, want %v", g, in.Real("f").Local()[i], want)
			}
		}
	})
}
