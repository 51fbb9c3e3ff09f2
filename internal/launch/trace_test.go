package launch

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
	out := gantt(sampleSpans(), 40)
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
	if out := gantt(nil, 20); !strings.Contains(out, "no spans") {
		t.Errorf("empty render: %q", out)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	out := gantt(sampleSpans(), 1)
	if !strings.Contains(out, "rank   0") {
		t.Errorf("clamped render broken:\n%s", out)
	}
}

func sampleReport() *comm.Report {
	return &comm.Report{Phases: []map[string]float64{
		{"inspector": 1, "executor": 3},
		{"inspector": 2, "executor": 1},
	}}
}

// TestSummarize: the -trace summary is rep.Phases per phase — the maximum
// over ranks, the mean and the total — by descending maximum.
func TestSummarize(t *testing.T) {
	var b strings.Builder
	phaseSummary(&b, sampleReport())
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 { // header, executor, inspector
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	// Executor: rank0=3, rank1=1 -> max 3, mean 2, total 4.
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "executor 3.0000 2.0000 4.0000" {
		t.Errorf("executor summary: %q", got)
	}
	// Inspector: rank0=1, rank1=2 -> max 2, mean 1.5, total 3.
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "inspector 2.0000 1.5000 3.0000" {
		t.Errorf("inspector summary: %q", got)
	}
}

func TestRenderSummary(t *testing.T) {
	var b strings.Builder
	phaseSummary(&b, sampleReport())
	want := `phase                 max       mean      total
executor           3.0000     2.0000     4.0000
inspector          2.0000     1.5000     3.0000
`
	if b.String() != want {
		t.Errorf("summary:\n%s\nwant:\n%s", b.String(), want)
	}
}
