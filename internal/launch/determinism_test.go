package launch

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// renderedRun executes a small CHAOS pipeline (inspector + executor over a
// deterministic indirection pattern) that marks its phases on every rank
// and returns the rendered Gantt chart plus phase summary.
func renderedRun(t *testing.T) string {
	t.Helper()
	const (
		nProcs = 4
		nElems = 120
		nIters = 360
	)
	rep := comm.Run(nProcs, costmodel.IPSC860(), func(p *comm.Proc) {
		ia := make([]int32, nIters)
		ib := make([]int32, nIters)
		for i := range ia {
			ia[i] = int32((i * 31) % nElems)
			ib[i] = int32((i*53 + 7) % nElems)
		}
		rt := core.NewRuntime(p)
		d := rt.BlockDist(nElems)
		y := make([]float64, d.NLocal())
		for i, g := range d.Globals() {
			y[i] = float64(g)
		}
		p.Mark("partition")
		lo, hi := partition.BlockRange(p.Rank(), nIters, p.Size())
		ht := d.NewHashTable()
		sa, sb := ht.NewStamp(), ht.NewStamp()
		la := ht.Hash(ia[lo:hi], sa)
		lb := ht.Hash(ib[lo:hi], sb)
		sched := schedule.Build(p, ht, sa|sb, 0)
		p.Mark("inspector")
		buf := make([]float64, sched.MinLen())
		copy(buf, y)
		schedule.Gather(p, sched, buf)
		acc := make([]float64, sched.MinLen())
		for k := range la {
			acc[la[k]] += buf[lb[k]]
		}
		p.ComputeFlops(len(la))
		schedule.Scatter(p, sched, acc, schedule.OpAdd)
		p.Mark("executor")
	})
	var b strings.Builder
	phaseSummary(&b, rep)
	return gantt(rep.Spans, 64) + b.String()
}

// TestRenderingDeterministic asserts the full pipeline — virtual-time
// simulation, span collection, Gantt rendering, and the phase summary —
// produces byte-identical output across two identical runs. This is the
// property chaosvet's determinism analyzer guards: any wall-clock read,
// global-rand draw, or unsorted map iteration feeding these renderers
// would break it.
func TestRenderingDeterministic(t *testing.T) {
	first := renderedRun(t)
	second := renderedRun(t)
	if first != second {
		t.Fatalf("identical runs rendered differently:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("rendered output is empty")
	}
}
