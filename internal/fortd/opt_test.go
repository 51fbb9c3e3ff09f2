package fortd

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/loopir"
)

// TestErrorPositionsGolden pins the exact rendered form of front-end
// diagnostics: file, 1-based line and column, message. Editors and the CI
// log scrapers rely on this format.
func TestErrorPositionsGolden(t *testing.T) {
	cases := []struct{ src, want string }{
		{"DECOMPOSITION a(4) @",
			`fortd: bad.fd:1:20: unexpected character '@'`},
		{"DECOMPOSITION a(0)",
			`fortd: bad.fd:1:17: bad decomposition size "0"`},
		{"      REAL x(reg)",
			`fortd: bad.fd:1:12: REAL x aligned with undeclared decomposition "reg"`},
		{"DECOMPOSITION a(4)\nDISTRIBUTE a(SPIRAL)",
			`fortd: bad.fd:2:14: unsupported distribution "SPIRAL" (BLOCK, CYCLIC or MAP)`},
		{"DECOMPOSITION a(4)\nINDIRECTION nb(a) CSR\nREAL x(a), f(a)\nFORALL i IN a\n FORALL j IN nb(i)\n  REDUCE(SUM, f(k), x(i))\n END FORALL\nEND FORALL",
			`fortd: bad.fd:6:17: direct subscript must be the outer variable "i", found "k"`},
		{"DECOMPOSITION a(4)\nDO t = 1, 0\nEND DO",
			`fortd: bad.fd:2:11: bad DO iteration count "0"`},
		{"DECOMPOSITION a(4)\nADAPT zz",
			`fortd: bad.fd:2:1: ADAPT of undeclared indirection array "zz"`},
		{"DECOMPOSITION a(4)\nDO t = 1, 2\n",
			`fortd: bad.fd:3:1: missing END DO`},
		{"FORALL i IN a\nEND FORALL",
			`fortd: bad.fd:2:1: expected "REDUCE", found "END"`},
	}
	for _, tc := range cases {
		_, err := CompileFile("bad.fd", tc.src)
		if err == nil {
			t.Errorf("%q compiled without error", tc.src)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("error mismatch:\n got  %s\n want %s", err.Error(), tc.want)
		}
		var fe *posError
		if pe, ok := err.(*posError); ok {
			fe = pe
		} else {
			t.Errorf("%q: error is %T, want *fortd.Error", tc.src, err)
			continue
		}
		if fe.file != "bad.fd" || fe.pos.line <= 0 {
			t.Errorf("%q: error carries file=%q pos=%v", tc.src, fe.file, fe.pos)
		}
	}
}

// TestVetAdaptiveExample pins the analysis findings on the shipped
// adaptive example: two hoists, one reuse, one fuse, all positioned.
func TestVetAdaptiveExample(t *testing.T) {
	src, err := os.ReadFile("../../examples/fortd/adaptive.fd")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileFile("adaptive.fd", string(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Vet()
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%d %s", d.Line, d.Col, d.Kind))
	}
	want := []string{"15:9 hoist", "21:9 fuse", "21:9 hoist", "21:9 reuse"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("vet findings:\n got  %v\n want %v", got, want)
	}
	for _, d := range diags {
		if d.File != "adaptive.fd" || d.Message == "" {
			t.Errorf("diagnostic missing file or message: %+v", d)
		}
	}
}

// TestVetSeededFixtures checks each analysis in isolation on minimal
// seeded programs, asserting the diagnostic kind and position.
func TestVetSeededFixtures(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string // "line:col kind"
	}{
		{
			name: "missed reuse between identical nests",
			src: `DECOMPOSITION a(40)
INDIRECTION nb(a) CSR
REAL x(a), f(a), g(a)
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(i) - x(nb(j)))
 END FORALL
END FORALL
FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, g(i), x(i) + x(nb(j)))
 END FORALL
END FORALL`,
			want: []string{"9:1 fuse", "9:1 reuse"},
		},
		{
			name: "hoistable inspector in DO",
			src: `DECOMPOSITION a(40)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
DO t = 1, 3
 FORALL i IN a
  FORALL j IN nb(i)
   REDUCE(SUM, f(i), x(i) - x(nb(j)))
  END FORALL
 END FORALL
END DO`,
			want: []string{"5:2 hoist"},
		},
		{
			name: "adapted inspector must stay",
			src: `DECOMPOSITION a(40)
INDIRECTION nb(a) CSR
REAL x(a), f(a)
DO t = 1, 3
 ADAPT nb
 FORALL i IN a
  FORALL j IN nb(i)
   REDUCE(SUM, f(i), x(i) - x(nb(j)))
  END FORALL
 END FORALL
END DO`,
			want: nil,
		},
		{
			name: "pair subset of merged pair",
			src: `DECOMPOSITION atoms(30)
DECOMPOSITION bonds(40)
REAL x(atoms), bf(atoms), cf(atoms)
INDIRECTION ib(bonds) WIDTH 1
INDIRECTION jb(bonds) WIDTH 1
FORALL k IN bonds
 REDUCE(SUM, bf(ib(k)), x(ib(k)) - x(jb(k)))
 REDUCE(SUM, bf(jb(k)), x(jb(k)) - x(ib(k)))
END FORALL
FORALL k IN bonds
 REDUCE(SUM, cf(ib(k)), x(ib(k)))
END FORALL`,
			want: []string{"10:1 subset"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := CompileFile("fix.fd", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range prog.Vet() {
				got = append(got, fmt.Sprintf("%d:%d %s", d.Line, d.Col, d.Kind))
			}
			if strings.Join(got, ", ") != strings.Join(tc.want, ", ") {
				t.Errorf("findings:\n got  %v\n want %v", got, tc.want)
			}
		})
	}
}

// TestDoLoopRepeatsBody checks DO semantics: one Step of a DO t=1,3
// program equals three Steps of the same program without the DO.
func TestDoLoopRepeatsBody(t *testing.T) {
	inner := `FORALL i IN a
 FORALL j IN nb(i)
  REDUCE(SUM, f(i), x(i) - x(nb(j)))
  REDUCE(SUM, f(nb(j)), x(nb(j)) - x(i))
 END FORALL
END FORALL`
	header := "DECOMPOSITION a(30)\nINDIRECTION nb(a) CSR\nREAL x(a), f(a)\n"
	plain, err := Compile(header + inner)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := Compile(header + "DO t = 1, 3\n" + inner + "\nEND DO")
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*Program{plain, looped} {
		if prog.NumLoops() != 1 {
			t.Fatalf("NumLoops = %d, want 1", prog.NumLoops())
		}
	}
	var want, got []uint64
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := instantiateSynthetic(plain, p, false)
		in.Step()
		in.Step()
		in.Step()
		if p.Rank() == 0 {
			want = f64bits(in.Real("f").Local())
		}
	})
	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		in := instantiateSynthetic(looped, p, false)
		in.Step()
		if p.Rank() == 0 {
			got = f64bits(in.Real("f").Local())
		}
	})
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("lengths: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("f[%d]: %x vs %x", i, want[i], got[i])
		}
	}
}

// instantiateSynthetic instantiates prog at -O0 or -O and fills it with the
// synthetic data set cmd/fortd uses (InitSynthetic, degree 3), so two
// instances of the same program start bit-identical.
func instantiateSynthetic(prog *Program, p *comm.Proc, optimized bool) *Instance {
	var in *Instance
	if optimized {
		in = prog.InstantiateOptimized(p)
	} else {
		in = prog.Instantiate(p)
	}
	in.InitSynthetic(3)
	return in
}

// randProgram generates a random legal fortd program exercising the
// optimizer: several sum nests (often over the same indirection array,
// creating reuse and fusion groups), optional pair loops, an optional
// enclosing DO with an optional ADAPT.
func randProgram(rng *rand.Rand) string {
	var b strings.Builder
	n := 20 + rng.Intn(40)
	fmt.Fprintf(&b, "DECOMPOSITION reg(%d)\n", n)
	if rng.Intn(2) == 0 {
		b.WriteString("DISTRIBUTE reg(MAP)\n")
	}
	nInds := 1 + rng.Intn(2)
	reals := []string{"x"}
	nLoops := 2 + rng.Intn(3)
	for i := 0; i < nLoops; i++ {
		reals = append(reals, fmt.Sprintf("f%d", i))
	}
	fmt.Fprintf(&b, "REAL %s\n", strings.Join(mapf(reals, func(s string) string { return s + "(reg)" }), ", "))
	for k := 0; k < nInds; k++ {
		fmt.Fprintf(&b, "INDIRECTION nb%d(reg) CSR\n", k)
	}

	usePair := rng.Intn(3) == 0
	if usePair {
		fmt.Fprintf(&b, "DECOMPOSITION bonds(%d)\n", 30+rng.Intn(30))
		b.WriteString("REAL bx(reg)\nREAL bf0(reg), bf1(reg)\n")
		b.WriteString("INDIRECTION ib(bonds) WIDTH 1\nINDIRECTION jb(bonds) WIDTH 1\n")
	}

	doN := 0
	if rng.Intn(2) == 0 {
		doN = 2 + rng.Intn(3)
		fmt.Fprintf(&b, "DO t = 1, %d\n", doN)
	}
	adaptAt := -1
	if doN > 0 && rng.Intn(2) == 0 {
		adaptAt = rng.Intn(nLoops)
	}
	for i := 0; i < nLoops; i++ {
		if i == adaptAt {
			fmt.Fprintf(&b, "ADAPT nb%d\n", rng.Intn(nInds))
		}
		ind := fmt.Sprintf("nb%d", rng.Intn(nInds))
		f := fmt.Sprintf("f%d", i)
		fmt.Fprintf(&b, "FORALL i IN reg\n FORALL j IN %s(i)\n", ind)
		fmt.Fprintf(&b, "  REDUCE(SUM, %s(%s(j)), x(%s(j)) - x(i))\n", f, ind, ind)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "  REDUCE(SUM, %s(i), x(i) * 0.5)\n", f)
		}
		b.WriteString(" END FORALL\nEND FORALL\n")
	}
	if usePair {
		for i := 0; i < 2; i++ {
			fmt.Fprintf(&b, "FORALL k IN bonds\n")
			fmt.Fprintf(&b, " REDUCE(SUM, bf%d(ib(k)), bx(ib(k)) - bx(jb(k)))\n", i)
			fmt.Fprintf(&b, " REDUCE(SUM, bf%d(jb(k)), bx(jb(k)) - bx(ib(k)))\n", i)
			b.WriteString("END FORALL\n")
		}
	}
	if doN > 0 {
		b.WriteString("END DO\n")
	}
	return b.String()
}

func mapf(in []string, f func(string) string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = f(s)
	}
	return out
}

// TestOptimizedMatchesNaiveRandom is the lowering property test: across
// random programs and processor counts, -O must produce bit-identical
// REAL array contents to -O0, never more inspector builds, and never more
// inspector+executor virtual time.
func TestOptimizedMatchesNaiveRandom(t *testing.T) {
	const trials = 12
	sawWin := false
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 977))
		src := randProgram(rng)
		prog, err := CompileFile(fmt.Sprintf("rand%d.fd", trial), src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		nprocs := []int{1, 2, 3}[trial%3]
		steps := 2
		type result struct {
			bits   map[string][]uint64
			builds int
			time   float64
		}
		run := func(optimized bool) *result {
			res := &result{bits: map[string][]uint64{}}
			rep := comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				in := instantiateSynthetic(prog, p, optimized)
				for s := 0; s < steps; s++ {
					in.Step()
				}
				if p.Rank() == 0 {
					for _, name := range prog.RealNames() {
						res.bits[name] = f64bits(in.Real(name).Local())
					}
					res.builds = in.InspectorBuilds()
				}
			})
			res.time = rep.Phases[0]["inspector"] + rep.Phases[0]["executor"]
			return res
		}
		naive := run(false)
		opt := run(true)
		for name, want := range naive.bits {
			got := opt.bits[name]
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: length %d vs %d\n%s", trial, name, len(got), len(want), src)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d: %s[%d] bits %x (-O0) vs %x (-O)\n%s",
						trial, name, i, want[i], got[i], src)
				}
			}
		}
		if opt.builds > naive.builds {
			t.Errorf("trial %d: -O did %d inspector builds, -O0 did %d\n%s",
				trial, opt.builds, naive.builds, src)
		}
		if opt.time > naive.time+1e-12 {
			t.Errorf("trial %d: -O charged %.9f virtual s, -O0 %.9f\n%s",
				trial, opt.time, naive.time, src)
		}
		if opt.builds < naive.builds {
			sawWin = true
		}
	}
	if !sawWin {
		t.Error("no generated program produced an optimization win; generator is too weak")
	}
}

// TestStepChargesItsRegionsToTheLedger: fortd keeps no clock of its own.
// Every inspector and executor region a Step runs — hoisted inspectors, a
// loop's guard, a fused run's guards, an append — is a phase of the rank's
// ledger, on every rank, at -O0 and -O. Host time between steps and what an
// adapter charges inside a step are charged to neither phase, so the two
// phases sum to the steps' clock advance less the adapter's charges.
func TestStepChargesItsRegionsToTheLedger(t *testing.T) {
	prog, err := Compile(`DECOMPOSITION reg(240)
DISTRIBUTE reg(MAP)
DECOMPOSITION cells(40)
REAL x(reg,1), f(reg,1), g(reg,1), y(reg,1), h(reg,1), v(reg,2)
INDIRECTION nbr(reg) CSR
INDIRECTION adap(reg) CSR
INDIRECTION icell(reg) WIDTH 1
DO t = 1, 3
 FORALL i IN reg
  FORALL j IN nbr(i)
   REDUCE(SUM, f(nbr(j)), x(nbr(j)) - x(i))
  END FORALL
 END FORALL
 FORALL i IN reg
  FORALL j IN nbr(i)
   REDUCE(SUM, g(i), x(i) * 0.5)
  END FORALL
 END FORALL
 ADAPT adap
 FORALL i IN reg
  FORALL j IN adap(i)
   REDUCE(SUM, h(adap(j)), y(adap(j)) - y(i))
  END FORALL
 END FORALL
 FORALL i IN reg
  REDUCE(APPEND, cells(icell(i)), v(i))
 END FORALL
END DO`)
	if err != nil {
		t.Fatal(err)
	}
	const nprocs, hostCost, adapterCost = 3, 1.0, 0.25
	for _, optimized := range []bool{false, true} {
		regions := make([]float64, nprocs) // each rank's steps, less its adapter charges
		rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			in := instantiateSynthetic(prog, p, optimized)
			adapts := 0
			in.adapter = func(_ string, ia *loopir.IndArray) {
				p.Compute(adapterCost)
				adapts++
				ia.Touch()
			}
			for s := 0; s < 2; s++ {
				if s > 0 {
					p.Compute(hostCost)
				}
				t0 := p.Clock()
				in.Step()
				regions[p.Rank()] += p.Clock() - t0
			}
			regions[p.Rank()] -= float64(adapts) * adapterCost
		})
		for r, ph := range rep.Phases {
			var keys []string
			for k := range ph {
				keys = append(keys, k)
			}
			if sort.Strings(keys); !slices.Equal(keys, []string{"executor", "inspector"}) {
				t.Fatalf("optimized=%v rank %d: phases %v, want executor and inspector", optimized, r, keys)
			}
			got := ph["inspector"] + ph["executor"]
			if regions[r] <= 0 || math.Abs(got-regions[r]) > 1e-9*regions[r] {
				t.Errorf("optimized=%v rank %d: inspector %.9f + executor %.9f = %.9f, the regions charged %.9f",
					optimized, r, ph["inspector"], ph["executor"], got, regions[r])
			}
		}
	}
}

// TestOptimizedMatchesNaiveAcrossRedistributions carries the lowering
// property through the adaptive cycle: the random programs are stepped,
// every decomposition is redistributed (three times, two alternating owner
// maps), and stepped again. Each Redistribute recycles the aligned arrays'
// storage and each re-inspection rewrites the hash table, the localized
// indices and the schedule — shared by a whole loop group under -O — in
// place; every buffer retired on the way is poisoned under `go test`. -O and
// -O0 must still agree bit for bit on every rank, and -O must still never
// build more inspectors.
func TestOptimizedMatchesNaiveAcrossRedistributions(t *testing.T) {
	const trials, cycles = 12, 3
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*977 + 5))
		src := randProgram(rng)
		prog, err := CompileFile(fmt.Sprintf("rand%d.fd", trial), src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		nprocs := []int{1, 2, 3}[trial%3]
		run := func(optimized bool) (bits []map[string][]uint64, builds int) {
			bits = make([]map[string][]uint64, nprocs)
			comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				in := instantiateSynthetic(prog, p, optimized)
				in.Step()
				for c := 0; c < cycles; c++ {
					for _, name := range decompNames(prog) {
						dec := in.Decomposition(name)
						owners := make([]int32, dec.NLocal())
						for i, g := range dec.Globals() {
							owners[i] = (g/3 + int32(c%2)*(g%5)) % int32(nprocs)
						}
						dec.Redistribute(owners)
					}
					in.Step()
				}
				bits[p.Rank()] = map[string][]uint64{}
				for _, name := range prog.RealNames() {
					bits[p.Rank()][name] = f64bits(in.Real(name).Local())
				}
				if p.Rank() == 0 {
					builds = in.InspectorBuilds()
				}
			})
			return bits, builds
		}
		naive, naiveBuilds := run(false)
		opt, optBuilds := run(true)
		for r := range naive {
			for name, want := range naive[r] {
				if !slices.Equal(opt[r][name], want) {
					t.Fatalf("trial %d rank %d: %s differs between -O0 and -O after %d redistributions\n%s", trial, r, name, cycles, src)
				}
			}
		}
		if optBuilds > naiveBuilds {
			t.Errorf("trial %d: -O did %d inspector builds, -O0 did %d\n%s", trial, optBuilds, naiveBuilds, src)
		}
	}
}

// TestOptimizedAppendMatchesNaive covers the append form: the fused
// light-schedule path must deliver the same record multiset and sizes as
// the hash-table path, with fewer inspector builds.
func TestOptimizedAppendMatchesNaive(t *testing.T) {
	src := `DECOMPOSITION cells(24)
DECOMPOSITION parts(96)
REAL vel(parts,2)
INDIRECTION icell(parts) WIDTH 1
DO t = 1, 3
 FORALL i IN parts
  REDUCE(APPEND, cells(icell(i)), vel(i))
 END FORALL
END DO`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, nprocs := range []int{1, 2, 4} {
		type stepResult struct {
			records []float64
			sizes   []int32
		}
		run := func(optimized bool) (out []stepResult, builds int) {
			comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
				in := instantiateSynthetic(prog, p, optimized)
				appends := in.Step()
				if p.Rank() == 0 {
					for _, a := range appends {
						recs := append([]float64(nil), a.Records...)
						sort.Float64s(recs)
						out = append(out, stepResult{records: recs, sizes: a.sizes})
					}
					builds = in.InspectorBuilds()
				}
			})
			return out, builds
		}
		naive, nb := run(false)
		opt, ob := run(true)
		if len(naive) != len(opt) || len(naive) != 3 {
			t.Fatalf("nprocs=%d: %d naive results, %d optimized, want 3", nprocs, len(naive), len(opt))
		}
		for s := range naive {
			if len(naive[s].records) != len(opt[s].records) {
				t.Fatalf("nprocs=%d step %d: %d records vs %d", nprocs, s, len(naive[s].records), len(opt[s].records))
			}
			for i := range naive[s].records {
				if math.Float64bits(naive[s].records[i]) != math.Float64bits(opt[s].records[i]) {
					t.Fatalf("nprocs=%d step %d: record multiset differs at %d", nprocs, s, i)
				}
			}
			for i := range naive[s].sizes {
				if naive[s].sizes[i] != opt[s].sizes[i] {
					t.Fatalf("nprocs=%d step %d: sizes[%d] %d vs %d",
						nprocs, s, i, naive[s].sizes[i], opt[s].sizes[i])
				}
			}
		}
		if ob >= nb {
			t.Errorf("nprocs=%d: fused append did %d builds, naive %d; want fewer", nprocs, ob, nb)
		}
	}
}

func f64bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// decompNames returns the program's decomposition names, sorted.
func decompNames(prog *Program) []string {
	var out []string
	for name := range prog.ir.syms.decomps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
