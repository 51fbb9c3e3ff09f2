package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// BenchmarkColdRun runs one whole full-size run of each CHARMM workload's
// benchmark variant per op, the way the benchmark harness takes a rep: cold,
// after runtime.GC(), with every rank locked to an OS thread of its own
// (comm.RunMeasured). B/op counts what all ranks allocate, and GCs/op the
// collection cycles that garbage started while the ranks ran.
//
//	go test ./internal/workload -run '^$' -bench ColdRun -benchtime 10x
func BenchmarkColdRun(b *testing.B) {
	for _, w := range Workloads {
		if w.Name != "kernel-remap" && w.Name != "charmm-md" {
			continue
		}
		in := w.Prepare(w.Variants[0], 1994, false)
		for _, ranks := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/ranks=%d", w.Name, ranks), func(b *testing.B) {
				b.ReportAllocs()
				var ms runtime.MemStats
				var gcs uint32
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					runtime.ReadMemStats(&ms)
					before := ms.NumGC
					b.StartTimer()
					comm.RunMeasured(ranks, costmodel.IPSC860(), func(p *comm.Proc) { in.Body(p, checkpoint.Recovery{}) })
					b.StopTimer()
					runtime.ReadMemStats(&ms)
					gcs += ms.NumGC - before
					b.StartTimer()
				}
				b.ReportMetric(float64(gcs)/float64(b.N), "GCs/op")
			})
		}
	}
}
