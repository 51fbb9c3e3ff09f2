package launch

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/comm"
)

// phaseGlyphs are assigned to phases in first-appearance order.
const phaseGlyphs = "EPNRSHMCXABDFGIJKLOQTUVWYZ"

// gantt renders the spans comm.Proc.Mark recorded as a per-rank virtual-time
// timeline: one line per rank, `width` characters across the common axis.
// Each character cell shows the phase occupying the majority of that cell's
// interval on that rank ('.' for untracked time). A legend follows.
func gantt(spans [][]comm.Span, width int) string {
	width = max(width, 10)
	end := 0.0
	for _, rank := range spans {
		for _, s := range rank {
			end = max(end, s.End)
		}
	}
	if end == 0 {
		return "trace: no spans recorded\n"
	}

	glyphs := map[string]byte{}
	var legend []string
	glyphOf := func(phase string) byte {
		if g, ok := glyphs[phase]; ok {
			return g
		}
		g := byte('?')
		if len(glyphs) < len(phaseGlyphs) {
			g = phaseGlyphs[len(glyphs)]
		}
		glyphs[phase] = g
		legend = append(legend, fmt.Sprintf("%c=%s", g, phase))
		return g
	}

	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0 .. %.4fs, %d ranks\n", end, len(spans))
	scale := float64(width) / end
	for r, rank := range spans {
		line := make([]byte, width)
		occupancy := make([]float64, width) // best coverage per cell
		for i := range line {
			line[i] = '.'
		}
		for _, s := range rank {
			g := glyphOf(s.Phase)
			lo := int(s.Start * scale)
			hi := min(int(s.End*scale), width-1)
			for c := lo; c <= hi; c++ {
				cellLo := float64(c) / scale
				cellHi := float64(c+1) / scale
				cover := min(s.End, cellHi) - max(s.Start, cellLo)
				if cover > occupancy[c] {
					occupancy[c] = cover
					line[c] = g
				}
			}
		}
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, line)
	}
	sort.Strings(legend)
	fmt.Fprintf(&b, "legend: %s  (.=untracked)\n", strings.Join(legend, " "))
	return b.String()
}

// phaseSummary prints, for every phase some rank marked, the maximum over
// ranks (the phase's share of the critical path), the mean per rank and the
// total, ordered by descending maximum, then by name.
func phaseSummary(w io.Writer, rep *comm.Report) {
	type row struct {
		phase      string
		max, total float64
	}
	var rows []row
	for _, ph := range rep.Phases {
		for k, v := range ph {
			i := slices.IndexFunc(rows, func(r row) bool { return r.phase == k })
			if i < 0 {
				i = len(rows)
				rows = append(rows, row{phase: k})
			}
			rows[i].max = max(rows[i].max, v)
			rows[i].total += v
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(b.max, a.max), strings.Compare(a.phase, b.phase))
	})
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "phase", "max", "mean", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.4f %10.4f %10.4f\n", r.phase, r.max, r.total/float64(len(rep.Phases)), r.total)
	}
}
