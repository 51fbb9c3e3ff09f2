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

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// Table is one rendered experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for c, h := range t.Columns {
		widths[c] = len(h)
	}
	for _, row := range t.Rows {
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
	line(t.Columns)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
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

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "*Note: %s*\n\n", n)
	}
	return b.String()
}

// Scale sizes the experiments. Full approximates the paper's problem and
// machine sizes; Quick shrinks everything for tests and CI benchmarks.
type Scale struct {
	Name string
	// CHARMM (Tables 1-3).
	CharmmAtoms  int
	CharmmSteps  int
	CharmmNBEvry int
	CharmmProcs  []int // table 1 includes a leading 1
	// DSMC (Tables 4-5).
	Dsmc2DEdges []int
	Dsmc2DProcs []int
	Dsmc3DProcs []int
	Dsmc3DMols  int
	Dsmc3DSteps int
	// Compiler comparisons (Tables 6-7).
	KernelAtoms int
	KernelIters int
	KernelProcs []int
	Dsmc7Procs  []int
	Dsmc7Mols   int
	Dsmc7Steps  int
	// Adaptive remapping (BENCH_adapt): the DSMC skew scenarios on which
	// static, periodic and policy-driven remapping are compared.
	AdaptProcs int
	AdaptMols  int
	AdaptSteps int

	machineModel *costmodel.Machine
	// Transport, when non-nil, supplies the transport every experiment runs
	// over (e.g. a TCP mesh, or a fault-injected wrapper for testing the
	// tables under wire misbehaviour). Nil means the in-memory transport.
	Transport func(n int) (comm.Transport, error)
}

// run executes body as an n-rank program over the scale's transport.
func (sc Scale) run(n int, body func(p *comm.Proc)) *comm.Report {
	if sc.Transport == nil {
		return comm.Run(n, sc.machineModel, body)
	}
	tr, err := sc.Transport(n)
	if err != nil {
		panic(fmt.Sprintf("bench: transport factory for %d ranks: %v", n, err))
	}
	return comm.RunTransport(n, sc.machineModel, tr, body)
}

// Full returns the paper-sized scale: 14026 atoms, up to 128 processors,
// 40 non-bonded list regenerations, the 48x48 and 96x96 DSMC grids.
func Full() Scale {
	return Scale{
		Name:         "full",
		CharmmAtoms:  14026,
		CharmmSteps:  200,
		CharmmNBEvry: 5,
		CharmmProcs:  []int{1, 16, 32, 64, 128},
		Dsmc2DEdges:  []int{48, 96},
		Dsmc2DProcs:  []int{16, 32, 64, 128},
		Dsmc3DProcs:  []int{8, 16, 32, 64, 128},
		Dsmc3DMols:   18000,
		Dsmc3DSteps:  200,
		KernelAtoms:  14026,
		KernelIters:  100,
		KernelProcs:  []int{32, 64},
		Dsmc7Procs:   []int{4, 8, 16, 32},
		Dsmc7Mols:    5000,
		Dsmc7Steps:   50,
		AdaptProcs:   16,
		AdaptMols:    18000,
		AdaptSteps:   200,
		machineModel: costmodel.IPSC860(),
	}
}

// Quick returns a shrunken scale for tests and `go test -bench`.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		CharmmAtoms:  1200,
		CharmmSteps:  10,
		CharmmNBEvry: 5,
		CharmmProcs:  []int{1, 2, 4, 8},
		Dsmc2DEdges:  []int{12},
		Dsmc2DProcs:  []int{2, 4, 8},
		Dsmc3DProcs:  []int{2, 4, 8},
		Dsmc3DMols:   2000,
		Dsmc3DSteps:  40,
		KernelAtoms:  800,
		KernelIters:  8,
		KernelProcs:  []int{2, 4},
		Dsmc7Procs:   []int{2, 4},
		Dsmc7Mols:    1000,
		Dsmc7Steps:   10,
		AdaptProcs:   8,
		AdaptMols:    2400,
		AdaptSteps:   96,
		machineModel: costmodel.IPSC860(),
	}
}

// Machine returns the cost model in use.
func (sc Scale) Machine() *costmodel.Machine { return sc.machineModel }

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// charmmConfig builds the Tables 1-3 CHARMM configuration.
func (sc Scale) charmmConfig() charmm.Config {
	cfg := charmm.DefaultConfig()
	if sc.CharmmAtoms != cfg.NAtoms {
		cfg = charmm.ConfigForAtoms(sc.CharmmAtoms)
	}
	cfg.Steps = sc.CharmmSteps
	cfg.NBEvery = sc.CharmmNBEvry
	return cfg
}

// runCharmm runs parallel CHARMM on n processors and returns the comm
// report plus rank 0's phase results and the maximum of each phase time
// over ranks.
func (sc Scale) runCharmm(n int, cfg charmm.Config) (*comm.Report, map[string]float64) {
	results := make([]*charmm.ProcResult, n)
	rep := sc.run(n, func(p *comm.Proc) {
		results[p.Rank()] = charmm.Run(p, cfg)
	})
	return rep, maxPhases(phasesOf(results))
}

func phasesOf(results []*charmm.ProcResult) []map[string]float64 {
	out := make([]map[string]float64, len(results))
	for i, r := range results {
		out[i] = r.Phases
	}
	return out
}

func maxPhases(phases []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range phases {
		for k, v := range m {
			if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// Table1 regenerates "Performance of Parallel CHARMM" (execution,
// computation, communication time and load-balance index vs processors).
func Table1(sc Scale) *Table {
	cfg := sc.charmmConfig()
	t := &Table{
		ID:      "Table 1",
		Title:   "Performance of Parallel CHARMM (virtual sec)",
		Columns: append([]string{"Number of Processors"}, intStrings(sc.CharmmProcs)...),
		Notes: []string{
			fmt.Sprintf("%d atoms, %d steps, non-bonded list updated every %d steps, RCB partitioning, merged schedules", cfg.NAtoms, cfg.Steps, cfg.NBEvery),
		},
	}
	exec := []string{"Execution Time"}
	compT := []string{"Computation Time"}
	commT := []string{"Communication Time"}
	lb := []string{"Load Balance Index"}
	for _, n := range sc.CharmmProcs {
		rep, _ := sc.runCharmm(n, cfg)
		exec = append(exec, f3(rep.MaxClock()))
		compT = append(compT, f3(rep.MeanComputeTime()))
		commT = append(commT, f3(rep.MeanCommTime()))
		lb = append(lb, f2(rep.LoadBalance()))
	}
	t.Rows = [][]string{exec, compT, commT, lb}
	return t
}

// Table2 regenerates "Preprocessing Overheads of CHARMM".
func Table2(sc Scale) *Table {
	cfg := sc.charmmConfig()
	procs := withoutOne(sc.CharmmProcs)
	t := &Table{
		ID:      "Table 2",
		Title:   "Preprocessing Overheads of CHARMM (virtual sec)",
		Columns: append([]string{"Number of Processors"}, intStrings(procs)...),
		Notes: []string{
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
		_, phases := sc.runCharmm(n, cfg)
		for _, name := range order {
			rows[name] = append(rows[name], f3(phases[keys[name]]))
		}
	}
	for _, name := range order {
		t.Rows = append(t.Rows, rows[name])
	}
	return t
}

// Table3 regenerates "Schedule Merging vs Multiple Schedules".
func Table3(sc Scale) *Table {
	cfg := sc.charmmConfig()
	procs := withoutOne(sc.CharmmProcs)
	t := &Table{
		ID:      "Table 3",
		Title:   "Communication Time: Schedule Merging vs Multiple Schedules (virtual sec)",
		Columns: []string{"Number of Processors", "Merged Comm", "Merged Exec", "Multiple Comm", "Multiple Exec"},
	}
	for _, n := range procs {
		cfg.Merged = true
		repM, _ := sc.runCharmm(n, cfg)
		cfg.Merged = false
		repS, _ := sc.runCharmm(n, cfg)
		t.Rows = append(t.Rows, []string{
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
		ID:      "Table 4",
		Title:   "DSMC 2-D: Regular vs Light-weight Schedules, total execution (virtual sec)",
		Columns: []string{"Grid", "Schedules"},
	}
	t.Columns = append(t.Columns, intStrings(sc.Dsmc2DProcs)...)
	for _, edge := range sc.Dsmc2DEdges {
		for _, mover := range []dsmc.Mover{dsmc.MoverRegular, dsmc.MoverLight} {
			row := []string{fmt.Sprintf("%dx%d", edge, edge), string(mover)}
			for _, n := range sc.Dsmc2DProcs {
				cfg := dsmc.Default2D(edge)
				cfg.Mover = mover
				rep := sc.run(n, func(p *comm.Proc) {
					dsmc.Run(p, cfg)
				})
				row = append(row, f3(rep.MaxClock()))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Table5 regenerates "Performance effects of remapping" for the 3-D DSMC
// code: static partition vs recursive bisection vs chain, remapped every
// 40 steps, plus the sequential time.
func Table5(sc Scale) *Table {
	cfg := dsmc.Default3D()
	cfg.NMols = sc.Dsmc3DMols
	cfg.Steps = sc.Dsmc3DSteps
	t := &Table{
		ID:      "Table 5",
		Title:   "DSMC 3-D: Performance effects of remapping (virtual sec)",
		Columns: append([]string{"Policy"}, append(intStrings(sc.Dsmc3DProcs), "Sequential")...),
		Notes:   []string{"remapped every 40 time steps; drifting molecule concentration"},
	}
	seq := sc.run(1, func(p *comm.Proc) {
		c := cfg
		c.RemapEvery = 0
		dsmc.Run(p, c)
	})
	policies := []struct {
		name  string
		part  string
		remap int
	}{
		{"Static partition", "block", 0},
		{"Recursive bisection", "rcb", 40},
		{"Chain partition", "chain", 40},
	}
	for i, pol := range policies {
		row := []string{pol.name}
		for _, n := range sc.Dsmc3DProcs {
			c := cfg
			c.Partitioner = pol.part
			c.RemapEvery = pol.remap
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
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table6 regenerates "Performance of Hand-Coded and Compiler-Generated
// CHARMM Loop".
func Table6(sc Scale) *Table {
	cfg := charmm.DefaultKernelConfig()
	cfg.NAtoms = sc.KernelAtoms
	cfg.Iters = sc.KernelIters
	t := &Table{
		ID:      "Table 6",
		Title:   "Hand-Coded vs Compiler-Generated CHARMM Loop (virtual sec)",
		Columns: []string{"Version", "Procs", "Partition", "Remap", "Inspector", "Executor", "Total"},
		Notes: []string{
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
		for _, n := range sc.KernelProcs {
			results := make([]*charmm.KernelResult, n)
			sc.run(n, func(p *comm.Proc) {
				results[p.Rank()] = v.run(p, cfg)
			})
			var part, rem, insp, exec, total float64
			for _, r := range results {
				part = maxf(part, r.Partition)
				rem = maxf(rem, r.Remap)
				insp = maxf(insp, r.Inspector)
				exec = maxf(exec, r.Executor)
				total = maxf(total, r.Total)
			}
			t.Rows = append(t.Rows, []string{
				v.name, fmt.Sprint(n), f3(part), f3(rem), f3(insp), f3(exec), f3(total),
			})
		}
	}
	return t
}

// Table7 regenerates "Performance of compiler generated DSMC code":
// manual light-schedule MOVE vs the compiler's REDUCE(APPEND) lowering.
func Table7(sc Scale) *Table {
	cfg := dsmc.Default2D(32)
	cfg.NMols = sc.Dsmc7Mols
	cfg.Steps = sc.Dsmc7Steps
	t := &Table{
		ID:      "Table 7",
		Title:   "Compiler-generated vs Manually-parallelized DSMC (virtual sec)",
		Columns: []string{"Metric", "Version"},
		Notes: []string{
			fmt.Sprintf("32x32 cells, %d molecules, %d steps", cfg.NMols, cfg.Steps),
		},
	}
	t.Columns = append(t.Columns, intStrings(sc.Dsmc7Procs)...)
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
		for _, n := range sc.Dsmc7Procs {
			c := cfg
			c.Mover = v.mover
			results := make([]*dsmc.ProcResult, n)
			rep := sc.run(n, func(p *comm.Proc) {
				results[p.Rank()] = dsmc.Run(p, c)
			})
			move := 0.0
			for _, r := range results {
				move = maxf(move, r.MoveTime)
			}
			appendRows[v.name] = append(appendRows[v.name], f3(move))
			totalRows[v.name] = append(totalRows[v.name], f3(rep.MaxClock()))
		}
	}
	for _, v := range variants {
		t.Rows = append(t.Rows, appendRows[v.name])
	}
	for _, v := range variants {
		t.Rows = append(t.Rows, totalRows[v.name])
	}
	return t
}

// AllTables runs every experiment at the given scale.
func AllTables(sc Scale) []*Table {
	return []*Table{
		Table1(sc), Table2(sc), Table3(sc), Table4(sc),
		Table5(sc), Table6(sc), Table7(sc),
	}
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

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
