// Top-level benchmark harness: one testing.B benchmark per table of the
// paper's evaluation section (regenerating the table at the quick scale and
// reporting the headline modeled metric), plus ablation benchmarks for the
// design choices DESIGN.md calls out (hash-table reuse, duplicate removal,
// translation-table storage, communication vectorization).
//
// Full-scale tables (paper-sized processor counts and problem sizes) are
// produced by `go run ./cmd/tables`.
package repro_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

// benchTable runs one table generator per iteration and reports the first
// numeric cell of the given row/column as "vsec" (modeled seconds).
func benchTable(b *testing.B, gen func(bench.Scale) *bench.Table, row, col int) {
	b.Helper()
	sc := bench.Quick()
	var last float64
	for i := 0; i < b.N; i++ {
		t := gen(sc)
		v, err := strconv.ParseFloat(t.Rows[row][col], 64)
		if err != nil {
			b.Fatalf("cell (%d,%d) of %s not numeric: %q", row, col, t.ID, t.Rows[row][col])
		}
		last = v
	}
	b.ReportMetric(last, "vsec")
}

func BenchmarkTable1CharmmScaling(b *testing.B) {
	benchTable(b, bench.Table1, 0, 1) // execution time on 1 proc
}

func BenchmarkTable2CharmmPreprocessing(b *testing.B) {
	benchTable(b, bench.Table2, 4, 1) // schedule regeneration, smallest P
}

func BenchmarkTable3ScheduleMerging(b *testing.B) {
	benchTable(b, bench.Table3, 0, 1) // merged comm time, smallest P
}

func BenchmarkTable4LightweightSchedules(b *testing.B) {
	benchTable(b, bench.Table4, 1, 2) // light-weight execution, smallest P
}

func BenchmarkTable5RemappingPolicies(b *testing.B) {
	benchTable(b, bench.Table5, 2, 1) // chain partition, smallest P
}

func BenchmarkTable6CompilerCharmm(b *testing.B) {
	benchTable(b, bench.Table6, 0, 6) // hand-coded total, smallest P
}

func BenchmarkTable7CompilerDsmc(b *testing.B) {
	benchTable(b, bench.Table7, 0, 2) // compiler reduce-append, smallest P
}

// buildBlockTable builds a replicated BLOCK translation table for n
// elements.
func buildBlockTable(p *comm.Proc, n int, kind ttable.Kind) *ttable.Table {
	lo := p.Rank() * n / p.Size()
	hi := (p.Rank() + 1) * n / p.Size()
	slab := make([]int32, hi-lo)
	for i := range slab {
		slab[i] = int32(p.Rank())
	}
	return ttable.Build(p, kind, slab)
}

// BenchmarkAblationHashReuse contrasts the paper's stamped-hash-table reuse
// (§3.2.2) against rehashing into a fresh table on every adaptation: the
// reused path skips the translation of unchanged indices.
func BenchmarkAblationHashReuse(b *testing.B) {
	const n = 50000
	const nprocs = 4
	rng := rand.New(rand.NewSource(1))
	refs := make([]int32, 30000)
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	run := func(reuse bool) float64 {
		rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			tt := buildBlockTable(p, n, ttable.Replicated)
			ht := hashtab.New(p, tt)
			s := ht.NewStamp()
			ht.Hash(refs, s)
			base := p.Clock()
			for adapt := 0; adapt < 5; adapt++ {
				if reuse {
					ht.ClearStamp(s)
				} else {
					ht = hashtab.New(p, tt)
					s = ht.NewStamp()
				}
				refs[adapt] = int32((int(refs[adapt]) + 1) % n) // tiny change
				ht.Hash(refs, s)
			}
			_ = base
		})
		return rep.MaxClock()
	}
	var reused, fresh float64
	for i := 0; i < b.N; i++ {
		reused = run(true)
		fresh = run(false)
	}
	b.ReportMetric(reused, "vsec-reuse")
	b.ReportMetric(fresh, "vsec-fresh")
	if reused >= fresh {
		b.Errorf("hash reuse (%.4f) not cheaper than fresh tables (%.4f)", reused, fresh)
	}
}

// BenchmarkAblationDuplicateRemoval contrasts software caching (duplicate
// removal through the hash table) against fetching every reference
// separately (schedule.FromTranslated keeps duplicates).
func BenchmarkAblationDuplicateRemoval(b *testing.B) {
	const n = 4000
	const nprocs = 4
	rng := rand.New(rand.NewSource(2))
	refs := make([]int32, 20000) // heavy duplication: 20000 refs, 4000 elems
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	var dedup, dup int64
	for i := 0; i < b.N; i++ {
		repDedup := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			tt := buildBlockTable(p, n, ttable.Replicated)
			ht := hashtab.New(p, tt)
			s := ht.NewStamp()
			ht.Hash(refs, s)
			sched := schedule.Build(p, ht, s, 0)
			data := make([]float64, sched.MinLen())
			schedule.Gather(p, sched, data)
		})
		repDup := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			tt := buildBlockTable(p, n, ttable.Replicated)
			ents := tt.Dereference(p, refs)
			owners := make([]int32, len(refs))
			offsets := make([]int32, len(refs))
			for k, e := range ents {
				owners[k] = e.Owner
				offsets[k] = e.Offset
			}
			sched, _ := schedule.FromTranslated(p, tt.NLocal(p.Rank()), owners, offsets)
			data := make([]float64, sched.MinLen())
			schedule.Gather(p, sched, data)
		})
		dedup = repDedup.TotalBytesSent()
		dup = repDup.TotalBytesSent()
	}
	b.ReportMetric(float64(dedup), "bytes-dedup")
	b.ReportMetric(float64(dup), "bytes-dup")
	if dedup >= dup {
		b.Errorf("duplicate removal (%d bytes) not below duplicated fetch (%d bytes)", dedup, dup)
	}
}

// BenchmarkAblationTranslationTable compares dereference cost across the
// three storage modes of §3.1.
func BenchmarkAblationTranslationTable(b *testing.B) {
	const n = 3 * ttable.DefaultPageSize * 4
	const nprocs = 4
	rng := rand.New(rand.NewSource(3))
	refs := make([]int32, 5000)
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	for _, kind := range []ttable.Kind{ttable.Replicated, ttable.Distributed, ttable.Paged} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			deref := make([]float64, nprocs)
			for i := 0; i < b.N; i++ {
				comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
					tt := buildBlockTable(p, n, kind)
					p.Barrier()
					start := p.Clock()
					tt.Dereference(p, refs)
					deref[p.Rank()] = p.Clock() - start
				})
			}
			vsec := 0.0
			for _, d := range deref {
				if d > vsec {
					vsec = d
				}
			}
			b.ReportMetric(vsec, "vsec-dereference")
		})
	}
}

// BenchmarkAblationVectorization contrasts communication vectorization (one
// aggregated message per partner, via a schedule) against naive one-message-
// per-element transfers.
func BenchmarkAblationVectorization(b *testing.B) {
	const n = 2000
	const nprocs = 4
	refs := make([]int32, 1500)
	rng := rand.New(rand.NewSource(4))
	for i := range refs {
		refs[i] = int32(rng.Intn(n))
	}
	var vec, scalar float64
	for i := 0; i < b.N; i++ {
		repVec := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			tt := buildBlockTable(p, n, ttable.Replicated)
			ht := hashtab.New(p, tt)
			s := ht.NewStamp()
			ht.Hash(refs, s)
			sched := schedule.Build(p, ht, s, 0)
			data := make([]float64, sched.MinLen())
			schedule.Gather(p, sched, data)
		})
		repScalar := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			tt := buildBlockTable(p, n, ttable.Replicated)
			ht := hashtab.New(p, tt)
			s := ht.NewStamp()
			ht.Hash(refs, s)
			sched := schedule.Build(p, ht, s, 0)
			// One message per element: send each off-processor value
			// separately (same data, no aggregation).
			for dst := 0; dst < p.Size(); dst++ {
				k := (p.Rank() + dst) % p.Size()
				for range make([]struct{}, sched.SendSize(k)) {
					p.Send(k, 99, comm.EncodeF64([]float64{1}))
				}
			}
			for src := 0; src < p.Size(); src++ {
				k := (p.Rank() - src + p.Size()) % p.Size()
				for range make([]struct{}, sched.FetchSize(k)) {
					p.Recv(k, 99)
				}
			}
		})
		vec = repVec.MaxClock()
		scalar = repScalar.MaxClock()
	}
	b.ReportMetric(vec, "vsec-vectorized")
	b.ReportMetric(scalar, "vsec-scalar")
	if vec >= scalar {
		b.Errorf("vectorized gather (%.4f) not cheaper than per-element sends (%.4f)", vec, scalar)
	}
}
