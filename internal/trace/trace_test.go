package trace

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

func sampleSpans() [][]comm.Span {
	return [][]comm.Span{
		{
			{Phase: "inspector", Start: 0, End: 1},
			{Phase: "executor", Start: 1, End: 4},
		},
		{
			{Phase: "inspector", Start: 0, End: 2},
			{Phase: "executor", Start: 2, End: 3},
		},
	}
}

func TestGanttStructure(t *testing.T) {
	out := Gantt(sampleSpans(), 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, 2 ranks, legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "2 ranks") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "rank   0") || !strings.Contains(lines[2], "rank   1") {
		t.Errorf("rank lines missing:\n%s", out)
	}
	if !strings.Contains(lines[3], "=inspector") || !strings.Contains(lines[3], "=executor") {
		t.Errorf("legend incomplete: %q", lines[3])
	}
	// Rank 0 spends 25% in inspector, 75% in executor: the glyph counts on
	// its line must reflect roughly that split.
	bar := lines[1][strings.IndexByte(lines[1], '|')+1 : strings.LastIndexByte(lines[1], '|')]
	insp := strings.Count(bar, "E") // first phase gets glyph 'E'
	exec := strings.Count(bar, "P")
	if insp == 0 || exec == 0 {
		t.Fatalf("bar missing phases: %q", bar)
	}
	if exec <= insp { // executor occupies 3x the time
		t.Errorf("glyph proportions wrong: inspector=%d executor=%d in %q", insp, exec, bar)
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := Gantt(nil, 20); !strings.Contains(out, "no spans") {
		t.Errorf("empty render: %q", out)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	out := Gantt(sampleSpans(), 1)
	if !strings.Contains(out, "rank   0") {
		t.Errorf("clamped render broken:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	sums := Summarize(sampleSpans())
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	// Executor: rank0=3, rank1=1 -> max 3, mean 2, total 4.
	if sums[0].Phase != "executor" || sums[0].Max != 3 || sums[0].Mean != 2 || sums[0].Total != 4 {
		t.Errorf("executor summary: %+v", sums[0])
	}
	// Inspector: rank0=1, rank1=2 -> max 2, mean 1.5, total 3.
	if sums[1].Phase != "inspector" || sums[1].Max != 2 || sums[1].Mean != 1.5 || sums[1].Total != 3 {
		t.Errorf("inspector summary: %+v", sums[1])
	}
}

func TestRenderSummary(t *testing.T) {
	out := RenderSummary(sampleSpans())
	if !strings.Contains(out, "executor") || !strings.Contains(out, "3.0000") {
		t.Errorf("summary table:\n%s", out)
	}
}
