package schedule

import (
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/ttable"
)

// TestFigure6PaperExample reproduces Figure 6 of the paper exactly: a data
// array y of 10 elements distributed in two blocks over 2 processors, three
// indirection arrays hashed with stamps a, b, c on processor 0, and the
// four schedules built from stamp combinations. Paper indices are 1-based;
// here they are 0-based, so paper element k is global k-1.
func TestFigure6PaperExample(t *testing.T) {
	// Paper: ia = 1,3,7,9,2  ib = 1,5,7,8,2  ic = 4,3,10,8,9 (1-based).
	ia := []int32{0, 2, 6, 8, 1}
	ib := []int32{0, 4, 6, 7, 1}
	ic := []int32{3, 2, 9, 7, 8}

	comm.Run(2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		// Block distribution: proc 0 owns globals 0-4, proc 1 owns 5-9.
		slab := make([]int32, 5)
		for i := range slab {
			slab[i] = int32(p.Rank())
		}
		tt := ttable.Build(p, ttable.Replicated, slab)
		ht := hashtab.New(p, tt)
		a := ht.NewStamp()
		b := ht.NewStamp()
		c := ht.NewStamp()

		if p.Rank() == 0 {
			ht.Hash(ia, a)
			ht.Hash(ib, b)
			ht.Hash(ic, c)
		}
		// Processor 1 participates in the collective builds with an empty
		// hash table, as the figure only shows processor 0's view.
		schedA := Build(p, ht, a, 0)
		schedB := Build(p, ht, b, 0)
		incB := Build(p, ht, b, a)
		merged := Build(p, ht, a|b|c, 0)

		fetched := func(s *Schedule) []int32 {
			gg := ht.GhostGlobals()
			var out []int32
			for r := 0; r < s.NProcs(); r++ {
				slots := s.RecvSlots(r)
				for _, slot := range slots {
					out = append(out, gg[int(slot)-ht.NLocal()])
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		eq := func(got, want []int32) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}

		if p.Rank() == 0 {
			// Paper: sched_A gathers elements 7,9 -> globals 6,8.
			if got := fetched(schedA); !eq(got, []int32{6, 8}) {
				t.Errorf("sched_A gathers %v, want [6 8]", got)
			}
			// sched_B gathers 7,8 -> globals 6,7.
			if got := fetched(schedB); !eq(got, []int32{6, 7}) {
				t.Errorf("sched_B gathers %v, want [6 7]", got)
			}
			// inc_schedB (stamp b-a) gathers element 8 -> global 7.
			if got := fetched(incB); !eq(got, []int32{7}) {
				t.Errorf("inc_schedB gathers %v, want [7]", got)
			}
			// merged_schedABC gathers 7,9,8,10 -> globals 6,7,8,9.
			if got := fetched(merged); !eq(got, []int32{6, 7, 8, 9}) {
				t.Errorf("merged_schedABC gathers %v, want [6 7 8 9]", got)
			}
			// Translated addresses match the figure: element 7 (global 6)
			// lives on proc 1 at (1-based) addr 2, i.e. offset 1.
			for paper, wantOff := range map[int32]int32{6: 1, 7: 2, 8: 3, 9: 4} {
				e, ok := ht.Lookup(paper)
				if !ok || e.Owner != 1 || e.Offset != wantOff {
					t.Errorf("global %d translated to %+v, want owner 1 offset %d", paper, e, wantOff)
				}
			}
		} else {
			// Processor 1 sends exactly the union {6,7,8,9} for the
			// merged schedule.
			if got := merged.totalSend(); got != 4 {
				t.Errorf("proc 1 sends %d elements for merged schedule, want 4", got)
			}
		}

		// Executing the merged gather delivers the owner's values.
		y := make([]float64, merged.MinLen())
		for i := 0; i < tt.NLocal(p.Rank()); i++ {
			y[i] = float64(p.Rank()*5 + i + 100) // value = global + 100
		}
		Gather(p, merged, y)
		if p.Rank() == 0 {
			gg := ht.GhostGlobals()
			for s, g := range gg {
				if y[ht.NLocal()+s] != float64(g)+100 {
					t.Errorf("ghost for global %d = %v, want %v", g, y[ht.NLocal()+s], float64(g)+100)
				}
			}
		}
	})
}
