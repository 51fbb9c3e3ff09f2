package comm_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/workload"
)

// TestPortableWire holds the codecs' value loops — the big-endian path, with
// packing into scratch and views decoded into scratch — to the path the host
// takes, on two ledger rows: kernel-remap (remap moves and schedule motions)
// and dsmc-finegrain (thousands of small messages). Each row's full-size
// 2-rank run at the ledger's seed and its short run, made once each way,
// must agree bit for bit on every rank's virtual clock, statistics and
// result; the short runs must pass their references, and the full-size runs
// on the loops hold testdata/ledger.json.
func TestPortableWire(t *testing.T) {
	for _, name := range []string{"kernel-remap", "dsmc-finegrain"} {
		i := slices.IndexFunc(workload.Workloads, func(w workload.Workload) bool { return w.Name == name })
		if i < 0 {
			t.Fatalf("no workload %s", name)
		}
		w := workload.Workloads[i]
		for _, short := range []bool{false, true} {
			var reps [2]*comm.Report
			var answers [2][]any
			for k, loops := range []bool{false, true} {
				restore := func() {}
				if loops {
					restore = comm.ForceWireLoops()
				}
				in := w.Prepare(w.Variants[0], 1994, short)
				answers[k] = make([]any, 2)
				reps[k] = comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) { answers[k][p.Rank()] = in.Body(p, checkpoint.Recovery{}) })
				restore()
				if short {
					if err := in.Reference()(answers[k]); err != nil {
						t.Errorf("%s short run, loops forced %v: the reference: %v", name, loops, err)
					}
				}
			}
			if !slices.Equal(reps[0].Clocks, reps[1].Clocks) || !slices.Equal(reps[0].Stats, reps[1].Stats) {
				t.Errorf("%s short %v: clocks %v, stats %+v on the host's path; %v, %+v on the loops",
					name, short, reps[0].Clocks, reps[0].Stats, reps[1].Clocks, reps[1].Stats)
			}
			if !reflect.DeepEqual(answers[0], answers[1]) {
				t.Errorf("%s short %v: the results differ between the host's path and the loops", name, short)
			}
		}
	}
	defer comm.ForceWireLoops()()
	workload.Ledger(t, "kernel-remap", "dsmc-finegrain")
}
