// Package trace renders per-rank virtual-time execution timelines (text
// Gantt charts) from the spans recorded by comm.Proc.Mark — release-grade
// observability for understanding where a CHAOS run spends its modeled
// time: which ranks idle in which phase, how remapping and inspector
// intervals interleave with executor sweeps.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/comm"
)

// phaseGlyphs are assigned to phases in first-appearance order.
const phaseGlyphs = "EPNRSHMCXABDFGIJKLOQTUVWYZ"

// Gantt renders one line per rank, `width` characters across the common
// virtual-time axis. Each character cell shows the phase occupying the
// majority of that cell's interval on that rank ('.' for untracked time).
// A legend follows.
func Gantt(spans [][]comm.Span, width int) string {
	if width < 10 {
		width = 10
	}
	end := 0.0
	for _, rank := range spans {
		for _, s := range rank {
			if s.End > end {
				end = s.End
			}
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
			hi := int(s.End * scale)
			if hi >= width {
				hi = width - 1
			}
			for c := lo; c <= hi; c++ {
				cellLo := float64(c) / scale
				cellHi := float64(c+1) / scale
				cover := minF(s.End, cellHi) - maxF(s.Start, cellLo)
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

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Summary aggregates span totals per phase across ranks: total virtual
// time, mean per rank, and max over ranks (the phase's critical path
// contribution).
type Summary struct {
	Phase string
	Total float64
	Mean  float64
	Max   float64
}

// Summarize computes per-phase aggregates, ordered by descending max.
func Summarize(spans [][]comm.Span) []Summary {
	totals := map[string]*Summary{}
	perRank := map[string][]float64{}
	for r, rank := range spans {
		for _, s := range rank {
			sum, ok := totals[s.Phase]
			if !ok {
				sum = &Summary{Phase: s.Phase}
				totals[s.Phase] = sum
				perRank[s.Phase] = make([]float64, len(spans))
			}
			d := s.End - s.Start
			sum.Total += d
			perRank[s.Phase][r] += d
		}
	}
	var out []Summary
	for phase, sum := range totals {
		for _, v := range perRank[phase] {
			if v > sum.Max {
				sum.Max = v
			}
		}
		sum.Mean = sum.Total / float64(len(spans))
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Max != out[j].Max {
			return out[i].Max > out[j].Max
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// RenderSummary formats Summarize output as an aligned table.
func RenderSummary(spans [][]comm.Span) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "phase", "max", "mean", "total")
	for _, s := range Summarize(spans) {
		fmt.Fprintf(&b, "%-14s %10.4f %10.4f %10.4f\n", s.Phase, s.Max, s.Mean, s.Total)
	}
	return b.String()
}
