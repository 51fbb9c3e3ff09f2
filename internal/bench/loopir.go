package bench

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/fortd"
)

// loopirWorkloads are the fortd programs the program-level optimizer is
// measured on: the Table 6 shape (CHARMM-style irregular nests inside a
// time loop, two of them sharing an index array, one adapting) and the
// Table 7 shape (DSMC-style append inside a time loop).
var loopirWorkloads = []struct {
	name, src string
}{
	{"charmm-nests", `DECOMPOSITION reg(600)
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
END DO`},
	{"dsmc-append", `DECOMPOSITION cells(150)
DECOMPOSITION parts(600)
REAL vel(parts,3)
INDIRECTION icell(parts) WIDTH 1
DO t = 1, 5
 FORALL i IN parts
  REDUCE(APPEND, cells(icell(i)), vel(i))
 END FORALL
END DO`},
}

// loopirRun executes one workload on nprocs simulated processors at the
// given optimization level and reports rank 0's inspector-build count,
// inspector and executor virtual time, and a checksum folding every REAL
// array's global abs-sum.
func loopirRun(prog *fortd.Program, nprocs int, optimized bool) (builds int, inspT, execT, check float64) {
	rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		var in *fortd.Instance
		if optimized {
			in = prog.InstantiateOptimized(p)
		} else {
			in = prog.Instantiate(p)
		}
		in.InitSynthetic(4)
		in.Step()
		total := 0.0
		for _, name := range prog.RealNames() {
			local := 0.0
			for _, v := range in.Real(name).Local() {
				local += math.Abs(v)
			}
			total += p.AllReduceScalarF64(comm.OpSum, local)
		}
		if p.Rank() == 0 {
			builds = in.InspectorBuilds()
			check = total
		}
	})
	return builds, rep.Phases[0]["inspector"], rep.Phases[0]["executor"], check
}

// Loopir measures the program-level optimizer (§4): each workload runs at
// -O0 (naive per-loop lowering) and -O (schedule reuse across FORALLs,
// inspector hoisting out of the time loop, fused data motion), reporting
// inspector builds, inspector/executor virtual time and the result
// checksum. The optimized rows must show strictly fewer builds and lower
// total time with an unchanged checksum.
func Loopir() *Table {
	const nprocs = 8
	t := &Table{
		id:      "BENCH-loopir",
		title:   "program-level schedule reuse: fortd -O0 vs -O (8 simulated procs, 5 time steps)",
		columns: []string{"workload", "mode", "inspector builds", "inspector (s)", "executor (s)", "total (s)", "checksum"},
		notes: []string{
			"-O merges identical-usage inspectors, hoists loop-invariant inspectors out of the DO, and fuses gather/scatter messages; checksums are bit-identical to -O0",
		},
	}
	for _, w := range loopirWorkloads {
		prog, err := fortd.Compile(w.src)
		if err != nil {
			panic(fmt.Sprintf("bench: loopir workload %s: %v", w.name, err))
		}
		for _, optimized := range []bool{false, true} {
			mode := "-O0"
			if optimized {
				mode = "-O"
			}
			builds, inspT, execT, check := loopirRun(prog, nprocs, optimized)
			t.rows = append(t.rows, []string{
				w.name, mode,
				fmt.Sprintf("%d", builds),
				fmt.Sprintf("%.6f", inspT),
				fmt.Sprintf("%.6f", execT),
				fmt.Sprintf("%.6f", inspT+execT),
				fmt.Sprintf("%.6f", check),
			})
		}
	}
	return t
}
