// Package bench is the experiment harness: one driver per table of the
// paper's evaluation (Tables 1-7), each regenerating the same rows the
// paper reports on the simulated machine. Results are virtual seconds
// under the iPSC/860-like cost model; the paper's shapes (who wins, by
// what factor, where behaviour crosses over), not absolute numbers, are
// the reproduction target.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// Table is one rendered experiment.
type Table struct {
	id      string
	title   string
	columns []string
	rows    [][]string
	notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.id, t.title)
	widths := make([]int, len(t.columns))
	for c, h := range t.columns {
		widths[c] = len(h)
	}
	for _, row := range t.rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for c, cell := range cells {
			if c == 0 {
				fmt.Fprintf(&b, "  %-*s", widths[c], cell)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[c], cell)
			}
		}
		b.WriteByte('\n')
	}
	line(t.columns)
	line(dashes(widths))
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Scale sizes the experiments. Full approximates the paper's problem and
// machine sizes; Quick shrinks everything for tests and CI benchmarks.
type Scale struct {
	Name string
	// CHARMM (Tables 1-3).
	charmmAtoms  int
	charmmSteps  int
	charmmNBEvry int
	charmmProcs  []int // table 1 includes a leading 1
	// DSMC (Tables 4-5).
	dsmc2DEdges []int
	dsmc2DProcs []int
	dsmc3DProcs []int
	dsmc3DMols  int
	dsmc3DSteps int
	// Compiler comparisons (Tables 6-7).
	kernelAtoms int
	kernelIters int
	kernelProcs []int
	dsmc7Procs  []int
	dsmc7Mols   int
	dsmc7Steps  int
	// Adaptive remapping (BENCH_adapt): the DSMC skew scenarios on which
	// static, periodic and policy-driven remapping are compared.
	adaptProcs int
	adaptMols  int
	adaptSteps int

	// Transport, when non-nil, supplies the transport every experiment runs
	// over (e.g. a TCP mesh, or a fault-injected wrapper for testing the
	// tables under wire misbehaviour). Nil means the in-memory transport.
	Transport func(n int) (comm.Transport, error)
}

// run executes body as an n-rank program on the iPSC/860 cost model, every
// table's machine, over the scale's transport.
func (sc Scale) run(n int, body func(p *comm.Proc)) *comm.Report {
	if sc.Transport == nil {
		return comm.Run(n, costmodel.IPSC860(), body)
	}
	tr, err := sc.Transport(n)
	if err != nil {
		panic(fmt.Sprintf("bench: transport factory for %d ranks: %v", n, err))
	}
	return comm.RunTransport(n, costmodel.IPSC860(), tr, body)
}

// Full returns the paper-sized scale: 14026 atoms, up to 128 processors,
// 40 non-bonded list regenerations, the 48x48 and 96x96 DSMC grids.
func Full() Scale {
	return Scale{
		Name:         "full",
		charmmAtoms:  14026,
		charmmSteps:  200,
		charmmNBEvry: 5,
		charmmProcs:  []int{1, 16, 32, 64, 128},
		dsmc2DEdges:  []int{48, 96},
		dsmc2DProcs:  []int{16, 32, 64, 128},
		dsmc3DProcs:  []int{8, 16, 32, 64, 128},
		dsmc3DMols:   18000,
		dsmc3DSteps:  200,
		kernelAtoms:  14026,
		kernelIters:  100,
		kernelProcs:  []int{32, 64},
		dsmc7Procs:   []int{4, 8, 16, 32},
		dsmc7Mols:    5000,
		dsmc7Steps:   50,
		adaptProcs:   16,
		adaptMols:    18000,
		adaptSteps:   200,
	}
}

// Quick returns a shrunken scale for tests and `go test -bench`.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		charmmAtoms:  1200,
		charmmSteps:  10,
		charmmNBEvry: 5,
		charmmProcs:  []int{1, 2, 4, 8},
		dsmc2DEdges:  []int{12},
		dsmc2DProcs:  []int{2, 4, 8},
		dsmc3DProcs:  []int{2, 4, 8},
		dsmc3DMols:   2000,
		dsmc3DSteps:  40,
		kernelAtoms:  800,
		kernelIters:  8,
		kernelProcs:  []int{2, 4},
		dsmc7Procs:   []int{2, 4},
		dsmc7Mols:    1000,
		dsmc7Steps:   10,
		adaptProcs:   8,
		adaptMols:    2400,
		adaptSteps:   96,
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// charmmConfig builds the Tables 1-3 CHARMM configuration.
func (sc Scale) charmmConfig() charmm.Config {
	cfg := charmm.DefaultConfig()
	if sc.charmmAtoms != cfg.NAtoms {
		cfg = charmm.ConfigForAtoms(sc.charmmAtoms)
	}
	cfg.Steps = sc.charmmSteps
	cfg.NBEvery = sc.charmmNBEvry
	return cfg
}

// charmmRuns memoises runCharmm: Table 1's runs are Table 2's and Table 3's
// merged column. A memoised report is read, never written.
var charmmRuns = struct {
	sync.Mutex
	reps map[charmmKey]*comm.Report
}{reps: map[charmmKey]*comm.Report{}}

// charmmKey is what a CHARMM run's report depends on.
type charmmKey struct {
	cfg charmm.Config
	n   int
}

// runCharmm runs parallel CHARMM on n processors and returns the comm
// report, once per configuration and processor count over the
// in-memory transport; a scale with its own transport runs every time.
func (sc Scale) runCharmm(n int, cfg charmm.Config) *comm.Report {
	body := func(p *comm.Proc) { charmm.Run(p, cfg) }
	if sc.Transport != nil {
		return sc.run(n, body)
	}
	key := charmmKey{cfg, n}
	charmmRuns.Lock()
	defer charmmRuns.Unlock()
	rep, ok := charmmRuns.reps[key]
	if !ok {
		rep = sc.run(n, body)
		charmmRuns.reps[key] = rep
	}
	return rep
}

// Table1 regenerates "Performance of Parallel CHARMM" (execution,
// computation, communication time and load-balance index vs processors).
func Table1(sc Scale) *Table {
	cfg := sc.charmmConfig()
	t := &Table{
		id:      "Table 1",
		title:   "Performance of Parallel CHARMM (virtual sec)",
		columns: append([]string{"Number of Processors"}, intStrings(sc.charmmProcs)...),
		notes: []string{
			fmt.Sprintf("%d atoms, %d steps, non-bonded list updated every %d steps, RCB partitioning, merged schedules", cfg.NAtoms, cfg.Steps, cfg.NBEvery),
		},
	}
	exec := []string{"Execution Time"}
	compT := []string{"Computation Time"}
	commT := []string{"Communication Time"}
	lb := []string{"Load Balance Index"}
	for _, n := range sc.charmmProcs {
		rep := sc.runCharmm(n, cfg)
		exec = append(exec, f3(rep.MaxClock()))
		compT = append(compT, f3(rep.MeanComputeTime()))
		commT = append(commT, f3(rep.MeanCommTime()))
		lb = append(lb, f2(rep.LoadBalance()))
	}
	t.rows = [][]string{exec, compT, commT, lb}
	return t
}

// Table2 regenerates "Preprocessing Overheads of CHARMM".
func Table2(sc Scale) *Table {
	cfg := sc.charmmConfig()
	procs := withoutOne(sc.charmmProcs)
	t := &Table{
		id:      "Table 2",
		title:   "Preprocessing Overheads of CHARMM (virtual sec)",
		columns: append([]string{"Number of Processors"}, intStrings(procs)...),
		notes: []string{
			fmt.Sprintf("schedule regeneration row totals all %d non-bonded list updates", cfg.Steps/cfg.NBEvery),
		},
	}
	rows := map[string][]string{}
	order := []string{"Data Partition", "Non-bonded List Update", "Remapping and Preprocessing", "Schedule Generation", "Schedule Regeneration"}
	keys := map[string]string{
		"Data Partition":              charmm.PhasePartition,
		"Non-bonded List Update":      charmm.PhaseNBList,
		"Remapping and Preprocessing": charmm.PhaseRemap,
		"Schedule Generation":         charmm.PhaseSchedGen,
		"Schedule Regeneration":       charmm.PhaseSchedRegen,
	}
	for _, name := range order {
		rows[name] = []string{name}
	}
	for _, n := range procs {
		rep := sc.runCharmm(n, cfg)
		for _, name := range order {
			rows[name] = append(rows[name], f3(rep.PhaseMax(keys[name])))
		}
	}
	for _, name := range order {
		t.rows = append(t.rows, rows[name])
	}
	return t
}

// Table3 regenerates "Schedule Merging vs Multiple Schedules".
func Table3(sc Scale) *Table {
	cfg := sc.charmmConfig()
	procs := withoutOne(sc.charmmProcs)
	t := &Table{
		id:      "Table 3",
		title:   "Communication Time: Schedule Merging vs Multiple Schedules (virtual sec)",
		columns: []string{"Number of Processors", "Merged Comm", "Merged Exec", "Multiple Comm", "Multiple Exec"},
	}
	for _, n := range procs {
		cfg.Merged = true
		repM := sc.runCharmm(n, cfg)
		cfg.Merged = false
		repS := sc.runCharmm(n, cfg)
		t.rows = append(t.rows, []string{
			fmt.Sprint(n),
			f3(repM.MeanCommTime()), f3(repM.MaxClock()),
			f3(repS.MeanCommTime()), f3(repS.MaxClock()),
		})
	}
	return t
}

// Table4 regenerates "Regular Schedules vs Light-weight Schedules" for the
// 2-D DSMC grids.
func Table4(sc Scale) *Table {
	t := &Table{
		id:      "Table 4",
		title:   "DSMC 2-D: Regular vs Light-weight Schedules, total execution (virtual sec)",
		columns: []string{"Grid", "Schedules"},
	}
	t.columns = append(t.columns, intStrings(sc.dsmc2DProcs)...)
	for _, edge := range sc.dsmc2DEdges {
		for _, mover := range []dsmc.Mover{dsmc.MoverRegular, dsmc.MoverLight} {
			row := []string{fmt.Sprintf("%dx%d", edge, edge), string(mover)}
			for _, n := range sc.dsmc2DProcs {
				cfg := dsmc.Default2D(edge)
				cfg.Mover = mover
				rep := sc.run(n, func(p *comm.Proc) {
					dsmc.Run(p, cfg)
				})
				row = append(row, f3(rep.MaxClock()))
			}
			t.rows = append(t.rows, row)
		}
	}
	return t
}

// Table5 regenerates "Performance effects of remapping" for the 3-D DSMC
// code: static partition vs recursive bisection vs chain, remapped every
// 40 steps, plus the sequential time.
func Table5(sc Scale) *Table {
	cfg := dsmc.Default3D()
	cfg.NMols = sc.dsmc3DMols
	cfg.Steps = sc.dsmc3DSteps
	t := &Table{
		id:      "Table 5",
		title:   "DSMC 3-D: Performance effects of remapping (virtual sec)",
		columns: append([]string{"Policy"}, append(intStrings(sc.dsmc3DProcs), "Sequential")...),
		notes:   []string{"remapped every 40 time steps; drifting molecule concentration"},
	}
	seq := sc.run(1, func(p *comm.Proc) {
		dsmc.Run(p, cfg)
	})
	policies := []struct {
		name  string
		part  string
		remap string
	}{
		{"Static partition", "block", ""},
		{"Recursive bisection", "rcb", "40"},
		{"Chain partition", "chain", "40"},
	}
	for i, pol := range policies {
		row := []string{pol.name}
		for _, n := range sc.dsmc3DProcs {
			c := cfg
			c.Partitioner = pol.part
			c.Remap = pol.remap
			rep := sc.run(n, func(p *comm.Proc) {
				dsmc.Run(p, c)
			})
			row = append(row, f3(rep.MaxClock()))
		}
		if i == 0 {
			row = append(row, f3(seq.MaxClock()))
		} else {
			row = append(row, "")
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// Table6 regenerates "Performance of Hand-Coded and Compiler-Generated
// CHARMM Loop".
func Table6(sc Scale) *Table {
	cfg := charmm.DefaultKernelConfig()
	cfg.NAtoms = sc.kernelAtoms
	cfg.Iters = sc.kernelIters
	t := &Table{
		id:      "Table 6",
		title:   "Hand-Coded vs Compiler-Generated CHARMM Loop (virtual sec)",
		columns: []string{"Version", "Procs", "Partition", "Remap", "Inspector", "Executor", "Total"},
		notes: []string{
			fmt.Sprintf("%d atoms, %d iterations, redistributed every %d iterations alternating RCB/RIB", cfg.NAtoms, cfg.Iters, cfg.RemapEvery),
		},
	}
	variants := []struct {
		name string
		run  func(p *comm.Proc, cfg charmm.KernelConfig) *charmm.KernelResult
	}{
		{"Hand Coded", charmm.RunKernelHand},
		{"Compiler", charmm.RunKernelCompiled},
	}
	for _, v := range variants {
		for _, n := range sc.kernelProcs {
			rep := sc.run(n, func(p *comm.Proc) { v.run(p, cfg) })
			// Total is the clock at the kernel's last Mark, before the
			// checksum's reduction: the end of each rank's last span.
			total := 0.0
			for _, spans := range rep.Spans {
				total = max(total, spans[len(spans)-1].End)
			}
			t.rows = append(t.rows, []string{
				v.name, fmt.Sprint(n), f3(rep.PhaseMax("partition")), f3(rep.PhaseMax("remap")),
				f3(rep.PhaseMax("inspector")), f3(rep.PhaseMax("executor")), f3(total),
			})
		}
	}
	return t
}

// Table7 regenerates "Performance of compiler generated DSMC code":
// manual light-schedule MOVE vs the compiler's REDUCE(APPEND) lowering.
func Table7(sc Scale) *Table {
	cfg := dsmc.Default2D(32)
	cfg.NMols = sc.dsmc7Mols
	cfg.Steps = sc.dsmc7Steps
	t := &Table{
		id:      "Table 7",
		title:   "Compiler-generated vs Manually-parallelized DSMC (virtual sec)",
		columns: []string{"Metric", "Version"},
		notes: []string{
			fmt.Sprintf("32x32 cells, %d molecules, %d steps", cfg.NMols, cfg.Steps),
		},
	}
	t.columns = append(t.columns, intStrings(sc.dsmc7Procs)...)
	variants := []struct {
		name  string
		mover dsmc.Mover
	}{
		{"Compiler generated", dsmc.MoverCompiler},
		{"Manually parallelized", dsmc.MoverLight},
	}
	appendRows := map[string][]string{}
	totalRows := map[string][]string{}
	for _, v := range variants {
		appendRows[v.name] = []string{"Reduce append", v.name}
		totalRows[v.name] = []string{"Total time", v.name}
		for _, n := range sc.dsmc7Procs {
			c := cfg
			c.Mover = v.mover
			rep := sc.run(n, func(p *comm.Proc) { dsmc.Run(p, c) })
			appendRows[v.name] = append(appendRows[v.name], f3(rep.PhaseMax(dsmc.PhaseMove)))
			totalRows[v.name] = append(totalRows[v.name], f3(rep.MaxClock()))
		}
	}
	for _, v := range variants {
		t.rows = append(t.rows, appendRows[v.name])
	}
	for _, v := range variants {
		t.rows = append(t.rows, totalRows[v.name])
	}
	return t
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

func withoutOne(xs []int) []int {
	var out []int
	for _, x := range xs {
		if x != 1 {
			out = append(out, x)
		}
	}
	return out
}
