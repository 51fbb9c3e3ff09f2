package partition

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// BenchmarkBisect times one warm RCB and RIB call on 2 ranks under
// RunMeasured, 4000 elements per rank, with integral weights (what the
// applications pass: 1 + row length) and with fractional ones. ns/elem is
// per element of the whole call.
func BenchmarkBisect(b *testing.B) {
	const perRank, nprocs = 4000, 2
	for _, part := range []struct {
		name string
		into func([]int32, *comm.Proc, *Geom) []int32
	}{{"rcb", rcbInto}, {"rib", ribInto}} {
		for _, integral := range []bool{true, false} {
			name := part.name + "/fractional"
			if integral {
				name = part.name + "/integral"
			}
			b.Run(name, func(b *testing.B) {
				comm.RunMeasured(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
					g := benchGeom(p.Rank(), perRank, integral)
					var owners []int32
					owners = part.into(owners, p, g)
					p.Barrier()
					if p.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						owners = part.into(owners, p, g)
					}
					p.Barrier()
					if p.Rank() == 0 {
						b.StopTimer()
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRank*nprocs), "ns/elem")
					}
				})
			})
		}
	}
}

// benchGeom is rank r's slab of a 3-D cloud.
func benchGeom(r, n int, integral bool) *Geom {
	rng := rand.New(rand.NewSource(int64(101 + r)))
	g := &Geom{Dim: 3, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n), W: make([]float64, n)}
	for i := 0; i < n; i++ {
		g.X[i], g.Y[i], g.Z[i] = rng.Float64()*40, rng.Float64()*40, rng.Float64()*40
		if integral {
			g.W[i] = float64(1 + rng.Intn(80))
		} else {
			g.W[i] = 1 + 80*rng.Float64()
		}
	}
	return g
}
