package fortd

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// benchWorkloads mirror internal/bench's two loopir workloads (bench imports
// fortd, so this package cannot import them).
var benchWorkloads = []string{`DECOMPOSITION reg(600)
DISTRIBUTE reg(MAP)
REAL x(reg,1), f(reg,1), g(reg,1), y(reg,1), h(reg,1)
INDIRECTION nbr(reg) CSR
INDIRECTION adap(reg) CSR
DO t = 1, 5
 FORALL i IN reg
  FORALL j IN nbr(i)
   REDUCE(SUM, f(nbr(j)), x(nbr(j)) - x(i))
   REDUCE(SUM, f(i), x(i) - x(nbr(j)))
  END FORALL
 END FORALL
 FORALL i IN reg
  FORALL j IN nbr(i)
   REDUCE(SUM, g(nbr(j)), x(nbr(j)) * 0.5)
   REDUCE(SUM, g(i), x(i) * 0.5)
  END FORALL
 END FORALL
 ADAPT adap
 FORALL i IN reg
  FORALL j IN adap(i)
   REDUCE(SUM, h(adap(j)), y(adap(j)) - y(i))
   REDUCE(SUM, h(i), y(i) - y(adap(j)))
  END FORALL
 END FORALL
END DO`, `DECOMPOSITION cells(150)
DECOMPOSITION parts(600)
REAL vel(parts,3)
INDIRECTION icell(parts) WIDTH 1
DO t = 1, 5
 FORALL i IN parts
  REDUCE(APPEND, cells(icell(i)), vel(i))
 END FORALL
END DO`}

// FuzzCompile asserts the compiler never panics on arbitrary input and that
// what it accepts runs: every outcome must be a diagnosable error or a
// program that (when small enough to run quickly) instantiates at -O0 and
// -O on 2 ranks, steps twice, and leaves every REAL array bit-identical
// between the two.
func FuzzCompile(f *testing.F) {
	f.Add(charmmSrc)
	f.Add(dsmcSrc)
	f.Add("DECOMPOSITION a(4)")
	f.Add("FORALL i IN a")
	f.Add("REAL x(")
	f.Add("REDUCE(SUM, x(i), )")
	f.Add("C just a comment\n! another\n")
	// UTF-8: multibyte runes in a comment, in place of a name and after one,
	// and a byte that is not UTF-8 at all.
	f.Add("DECOMPOSITION a(4) ! ∑ é\nREAL x(a)")
	f.Add("DECOMPOSITION é(4)")
	f.Add("DECOMPOSITION ĵ(4)")
	f.Add("DECOMPOSITION a(4) 😀")
	f.Add("DECOMPOSITION a\xff(4)")
	f.Add("DECOMPOSITION a(4)\nINDIRECTION nb(a) CSR\nREAL x(a), f(a)\nFORALL i IN a\n FORALL j IN nb(i)\n  REDUCE(SUM, f(i), x(i) * -3.5 / (x(nb(j)) + 1))\n END FORALL\nEND FORALL")
	examples, err := filepath.Glob("../../examples/fortd/*.fd")
	if err != nil || len(examples) == 0 {
		f.Fatalf("examples: %v, %v", examples, err)
	}
	for _, file := range examples {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range benchWorkloads {
		f.Add(src)
	}
	f.Add("DECOMPOSITION atoms(40)\nINDIRECTION p(atoms) WIDTH 2")
	_, cases := readDiagGolden(f)
	for _, src := range cases {
		f.Add(src)
	}
	// Nesting past maxExprDepth; TestCompileErrors goes 1 000 000 deep, too
	// large an input to mutate.
	f.Add(sumSrc(strings.Repeat("(", 1000) + "x(i" + strings.Repeat(")", 1000)))
	f.Add(sumSrc(strings.Repeat("-", 1000) + "x(i)"))
	f.Fuzz(func(t *testing.T, src string) {
		defer func() {
			if e := recover(); e != nil {
				t.Fatalf("panicked on %q: %v", src, e)
			}
		}()
		prog, err := Compile(src)
		if err != nil && prog != nil {
			t.Fatal("non-nil program returned with an error")
		}
		if err != nil && !strings.Contains(err.Error(), "fortd:") {
			t.Fatalf("error without package prefix: %v", err)
		}
		if err != nil || !smallEnoughToRun(prog) {
			return
		}
		naive, opt := runSynthetic(prog, false), runSynthetic(prog, true)
		for r := range naive {
			for name, want := range naive[r] {
				if !slices.Equal(opt[r][name], want) {
					t.Fatalf("rank %d: %s differs between -O0 and -O\n%s", r, name, src)
				}
			}
		}
	})
}

// smallEnoughToRun bounds the fuzzer's run step: every decomposition at most
// 4096 elements and at most 256 statement executions per Step.
func smallEnoughToRun(prog *Program) bool {
	for _, d := range prog.ir.syms.decomps {
		if d.n > 4096 {
			return false
		}
	}
	var execs func(sc *irScope) float64
	execs = func(sc *irScope) float64 {
		n := 0.0
		for _, st := range sc.stmts {
			if st.child != nil {
				n += float64(st.child.doN) * execs(st.child)
			} else {
				n++
			}
		}
		return n
	}
	return execs(prog.ir.root) <= 256
}

// runSynthetic runs prog on 2 ranks over the synthetic data for two Steps
// and returns every rank's REAL arrays as bits.
func runSynthetic(prog *Program, optimized bool) []map[string][]uint64 {
	bits := make([]map[string][]uint64, 2)
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := instantiateSynthetic(prog, p, optimized)
		in.Step()
		in.Step()
		bits[p.Rank()] = map[string][]uint64{}
		for _, name := range prog.RealNames() {
			bits[p.Rank()][name] = f64bits(in.Real(name).Local())
		}
	})
	return bits
}
