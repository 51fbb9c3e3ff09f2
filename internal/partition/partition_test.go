package partition

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

func TestBlockOwnerMatchesRange(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw)%500 + 1
		nprocs := int(pRaw)%16 + 1
		for r := 0; r < nprocs; r++ {
			lo, hi := BlockRange(r, n, nprocs)
			for g := lo; g < hi; g++ {
				if BlockOwner(g, n, nprocs) != r {
					return false
				}
			}
		}
		// Ranges must tile [0, n).
		covered := 0
		for r := 0; r < nprocs; r++ {
			lo, hi := BlockRange(r, n, nprocs)
			covered += hi - lo
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBlockAndCyclicMaps pins the BLOCK map of 10 elements over 3 ranks;
// CYCLIC layouts are covered by core's TestCyclicDist.
func TestBlockAndCyclicMaps(t *testing.T) {
	owners := BlockOwnersInto(nil, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10, 3)
	want := []int32{0, 0, 0, 1, 1, 1, 2, 2, 2, 2}
	for i := range owners {
		if owners[i] != want[i] {
			t.Errorf("BLOCK owner of %d of 10 over 3 = %d, want %d", i, owners[i], want[i])
		}
	}
}

// cloudGeom builds each rank's slab of a deterministic random point cloud.
func cloudGeom(p *comm.Proc, nGlobal, dim int, seed int64, weighted bool) *Geom {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, nGlobal)
	ys := make([]float64, nGlobal)
	zs := make([]float64, nGlobal)
	ws := make([]float64, nGlobal)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = rng.Float64() * 4
		zs[i] = rng.Float64()
		ws[i] = 0.5 + rng.Float64()
	}
	lo, hi := BlockRange(p.Rank(), nGlobal, p.Size())
	g := &Geom{Dim: dim, X: xs[lo:hi], Y: ys[lo:hi]}
	if dim == 3 {
		g.Z = zs[lo:hi]
	}
	if weighted {
		g.W = ws[lo:hi]
	}
	return g
}

// balanceOf runs a partitioner over a cloud and returns max/avg weight.
func balanceOf(t *testing.T, nprocs int, part func(p *comm.Proc, g *Geom) []int32, weighted bool) float64 {
	t.Helper()
	const n = 4000
	loads := make([]float64, nprocs)
	var mu sortedCollector
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		g := cloudGeom(p, n, 3, 42, weighted)
		owners := part(p, g)
		if len(owners) != g.Len() {
			t.Errorf("partitioner returned %d owners for %d elements", len(owners), g.Len())
		}
		local := make([]float64, nprocs)
		for i, o := range owners {
			if o < 0 || int(o) >= nprocs {
				t.Errorf("owner %d out of range", o)
				continue
			}
			local[o] += g.weight(i)
		}
		tot := p.AllReduceF64(comm.OpSum, local)
		if p.Rank() == 0 {
			for i := range tot {
				mu.add(tot[i])
			}
		}
	})
	copy(loads, mu.vals)
	max, sum := 0.0, 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	return max * float64(nprocs) / sum
}

type sortedCollector struct {
	mu   sync.Mutex
	vals []float64
}

func (c *sortedCollector) add(v float64) {
	c.mu.Lock()
	c.vals = append(c.vals, v)
	c.mu.Unlock()
}

func TestRCBLoadBalance(t *testing.T) {
	for _, nprocs := range []int{2, 4, 8} {
		if lb := balanceOf(t, nprocs, RCB, true); lb > 1.10 {
			t.Errorf("RCB nprocs=%d load balance %v > 1.10", nprocs, lb)
		}
	}
}

func TestRIBLoadBalance(t *testing.T) {
	for _, nprocs := range []int{2, 4, 8} {
		if lb := balanceOf(t, nprocs, RIB, true); lb > 1.10 {
			t.Errorf("RIB nprocs=%d load balance %v > 1.10", nprocs, lb)
		}
	}
}

func TestChainLoadBalance(t *testing.T) {
	chain := func(p *comm.Proc, g *Geom) []int32 { return Chain(p, 0, g) }
	for _, nprocs := range []int{2, 4, 8} {
		if lb := balanceOf(t, nprocs, chain, true); lb > 1.15 {
			t.Errorf("Chain nprocs=%d load balance %v > 1.15", nprocs, lb)
		}
	}
}

func TestNonPowerOfTwoProcs(t *testing.T) {
	for _, nprocs := range []int{3, 5, 6} {
		if lb := balanceOf(t, nprocs, RCB, false); lb > 1.15 {
			t.Errorf("RCB nprocs=%d load balance %v > 1.15", nprocs, lb)
		}
	}
}

func TestRCBSpatialLocality(t *testing.T) {
	// With unit weights on a uniform cloud, RCB cuts must produce regions
	// whose bounding boxes overlap little: check that the average pairwise
	// bounding-box volume is much smaller than the domain volume.
	const n = 4000
	const nprocs = 8
	mins := make([][3]float64, nprocs)
	maxs := make([][3]float64, nprocs)
	for r := range mins {
		for c := 0; c < 3; c++ {
			mins[r][c] = math.Inf(1)
			maxs[r][c] = math.Inf(-1)
		}
	}
	var mu sortedCollector
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		g := cloudGeom(p, n, 3, 17, false)
		owners := RCB(p, g)
		// Encode local boxes and reduce.
		lo := make([]float64, nprocs*3)
		hi := make([]float64, nprocs*3)
		for i := range lo {
			lo[i] = math.Inf(1)
			hi[i] = math.Inf(-1)
		}
		for i, o := range owners {
			for c := 0; c < 3; c++ {
				v := g.coord(c, i)
				if v < lo[int(o)*3+c] {
					lo[int(o)*3+c] = v
				}
				if v > hi[int(o)*3+c] {
					hi[int(o)*3+c] = v
				}
			}
		}
		lo = p.AllReduceF64(comm.OpMin, lo)
		hi = p.AllReduceF64(comm.OpMax, hi)
		if p.Rank() == 0 {
			volSum := 0.0
			for r := 0; r < nprocs; r++ {
				v := 1.0
				for c := 0; c < 3; c++ {
					v *= hi[r*3+c] - lo[r*3+c]
				}
				volSum += v
			}
			mu.add(volSum)
		}
	})
	domainVol := 10.0 * 4 * 1
	if mu.vals[0] > 0.6*float64(8)*domainVol/8*2 { // sum of region volumes < ~1.2x domain
		t.Errorf("RCB regions cover volume %v, domain %v: poor locality", mu.vals[0], domainVol)
	}
}

func TestChainRespectsAxisOrdering(t *testing.T) {
	// Along the chosen axis, owners must be monotonically non-decreasing.
	const n = 1000
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		g := cloudGeom(p, n, 2, 5, false)
		owners := Chain(p, 0, g)
		type pair struct {
			x float64
			o int32
		}
		var ps []pair
		for i := range owners {
			ps = append(ps, pair{g.X[i], owners[i]})
		}
		// Local check is sufficient: bins are global.
		for _, a := range ps {
			for _, b := range ps {
				if a.x < b.x-1e-9 && a.o > b.o {
					t.Fatalf("x=%v owner %d > x=%v owner %d", a.x, a.o, b.x, b.o)
				}
			}
		}
	})
}

func TestChainCheaperThanRCB(t *testing.T) {
	// The paper's key DSMC observation: chain partitioning cost is
	// dramatically lower than recursive bisection.
	const n = 8000
	const nprocs = 8
	rcb := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		RCB(p, cloudGeom(p, n, 3, 11, true))
	})
	chain := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		Chain(p, 0, cloudGeom(p, n, 3, 11, true))
	})
	if chain.MaxClock()*3 > rcb.MaxClock() {
		t.Errorf("chain %.6fs vs RCB %.6fs: expected >=3x cheaper", chain.MaxClock(), rcb.MaxClock())
	}
}

func TestDeterminism(t *testing.T) {
	const n = 2000
	run := func() []int32 {
		var all []int32
		var mu sortedCollector
		comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			g := cloudGeom(p, n, 3, 23, true)
			owners := RIB(p, g)
			if p.Rank() == 0 {
				_ = owners
			}
			// Collect rank 0's owners deterministically.
			all := p.AllGatherI32Into(nil, owners)
			if p.Rank() == 0 {
				for _, o := range all {
					mu.add(float64(o))
				}
			}
		})
		for _, v := range mu.vals {
			all = append(all, int32(v))
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RIB not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPrincipalAxis(t *testing.T) {
	// Dominant direction of a diagonal matrix.
	v := principalAxis([3][3]float64{{5, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	if math.Abs(math.Abs(v[0])-1) > 1e-6 {
		t.Errorf("principal axis = %v, want +-x", v)
	}
	// Anisotropic cloud along (1,1,0)/sqrt2.
	var cov [3][3]float64
	d := [3]float64{1 / math.Sqrt2, 1 / math.Sqrt2, 0}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			cov[i][j] = 4*d[i]*d[j] + 0.1*boolTo(i == j)
		}
	}
	v = principalAxis(cov)
	dot := math.Abs(v[0]*d[0] + v[1]*d[1] + v[2]*d[2])
	if dot < 0.999 {
		t.Errorf("principal axis = %v, want +-%v (dot %v)", v, d, dot)
	}
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestSingleProcPartitioners(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		g := cloudGeom(p, 100, 2, 1, false)
		for _, owners := range [][]int32{RCB(p, g), RIB(p, g), Chain(p, 1, g)} {
			for _, o := range owners {
				if o != 0 {
					t.Errorf("single-proc partitioner produced owner %d", o)
				}
			}
		}
	})
}

func TestGeomValidate(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad geometry did not panic")
			}
		}()
		RCB(p, &Geom{Dim: 3, X: make([]float64, 3), Y: make([]float64, 2)})
	})
}

func TestWeightedSkewedCloud(t *testing.T) {
	// Heavy weights concentrated on one side: partitioners must still
	// balance weight, giving the heavy side more processors.
	const n = 4000
	const nprocs = 4
	var mu sortedCollector
	comm.Run(nprocs, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rng := rand.New(rand.NewSource(77))
		xs := make([]float64, n)
		ys := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
			ws[i] = 1
			if xs[i] < 0.25 {
				ws[i] = 10 // hot corner
			}
		}
		lo, hi := BlockRange(p.Rank(), n, nprocs)
		g := &Geom{Dim: 2, X: xs[lo:hi], Y: ys[lo:hi], W: ws[lo:hi]}
		owners := RCB(p, g)
		local := make([]float64, nprocs)
		for i, o := range owners {
			local[o] += g.W[i]
		}
		tot := p.AllReduceF64(comm.OpSum, local)
		if p.Rank() == 0 {
			max, sum := 0.0, 0.0
			for _, l := range tot {
				if l > max {
					max = l
				}
				sum += l
			}
			mu.add(max * nprocs / sum)
		}
	})
	if mu.vals[0] > 1.15 {
		t.Errorf("weighted RCB imbalance %v > 1.15", mu.vals[0])
	}
}
