package charmm

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// smallConfig returns a fast configuration for correctness tests.
func smallConfig() Config {
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 6
	cfg.NBEvery = 3
	return cfg
}

func TestGenInitStateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := GenInitState(cfg)
	b := GenInitState(cfg)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("positions differ at %d", i)
		}
	}
	if len(a.BondI) != len(b.BondI) {
		t.Fatal("bond counts differ")
	}
	// Bonds connect atoms within the same 3-atom molecule.
	for k := range a.BondI {
		if a.BondI[k]/3 != a.BondJ[k]/3 {
			t.Errorf("bond %d crosses molecules: %d-%d", k, a.BondI[k], a.BondJ[k])
		}
		if a.BondLen[k] <= 0 {
			t.Errorf("bond %d rest length %v", k, a.BondLen[k])
		}
	}
}

func TestNBListSymmetricAndWithinCutoff(t *testing.T) {
	cfg := smallConfig()
	st := GenInitState(cfg)
	ptr, jnb := buildNBListSeq(st.Pos, cfg.NAtoms, cfg)
	c2 := cfg.Cutoff * cfg.Cutoff
	count := 0
	for i := 0; i < cfg.NAtoms; i++ {
		for _, j := range jnb[ptr[i]:ptr[i+1]] {
			if int(j) <= i {
				t.Fatalf("list for %d contains partner %d <= i", i, j)
			}
			dx := st.Pos[3*i] - st.Pos[3*j]
			dy := st.Pos[3*i+1] - st.Pos[3*j+1]
			dz := st.Pos[3*i+2] - st.Pos[3*j+2]
			if dx*dx+dy*dy+dz*dz >= c2 {
				t.Fatalf("pair (%d,%d) outside cutoff", i, j)
			}
			count++
		}
	}
	// Brute-force pair count must match.
	brute := 0
	for i := 0; i < cfg.NAtoms; i++ {
		for j := i + 1; j < cfg.NAtoms; j++ {
			dx := st.Pos[3*i] - st.Pos[3*j]
			dy := st.Pos[3*i+1] - st.Pos[3*j+1]
			dz := st.Pos[3*i+2] - st.Pos[3*j+2]
			if dx*dx+dy*dy+dz*dz < c2 {
				brute++
			}
		}
	}
	if count != brute {
		t.Errorf("cell-grid list has %d pairs, brute force %d", count, brute)
	}
}

func TestForcesAreEqualAndOpposite(t *testing.T) {
	pi := []float64{0, 0, 0}
	pj := []float64{1, 0.5, 0.25}
	fi := make([]float64, 3)
	fj := make([]float64, 3)
	pairForce(pi, pj, fi, fj, 9)
	for d := 0; d < 3; d++ {
		if fi[d] != -fj[d] {
			t.Errorf("pair force not antisymmetric: %v vs %v", fi, fj)
		}
	}
	fi2 := make([]float64, 3)
	fj2 := make([]float64, 3)
	bondForce(pi, pj, fi2, fj2, 0.5)
	for d := 0; d < 3; d++ {
		if fi2[d] != -fj2[d] {
			t.Errorf("bond force not antisymmetric: %v vs %v", fi2, fj2)
		}
	}
	// Bond stretched beyond rest length pulls i toward j.
	if fi2[0] <= 0 == (pj[0] > pi[0]) {
		t.Errorf("stretched bond force direction wrong: %v", fi2)
	}
}

func TestPairForceCutoff(t *testing.T) {
	fi := make([]float64, 3)
	fj := make([]float64, 3)
	pairForce([]float64{0, 0, 0}, []float64{5, 0, 0}, fi, fj, 4)
	for d := 0; d < 3; d++ {
		if fi[d] != 0 || fj[d] != 0 {
			t.Error("force beyond cutoff must be zero")
		}
	}
}

func TestIntegrateReflectsAtWalls(t *testing.T) {
	box := [3]float64{10, 10, 10}
	pos := []float64{0.01, 5, 9.99}
	vel := []float64{-10, 0, 10}
	frc := []float64{0, 0, 0}
	integrate(pos, vel, frc, &box, 0.1)
	if pos[0] < 0 || pos[2] > box[2] {
		t.Errorf("atom escaped the box: %v", pos)
	}
	if vel[0] <= 0 || vel[2] >= 0 {
		t.Errorf("velocity not reflected: %v", vel)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	_, wantSum := Reference(cfg)
	for _, nprocs := range []int{1, 2, 4} {
		results := make([]*ProcResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		for r, res := range results {
			if math.Abs(res.Checksum-wantSum) > 1e-9*math.Abs(wantSum) {
				t.Errorf("nprocs=%d rank=%d checksum %v, want %v", nprocs, r, res.Checksum, wantSum)
			}
		}
	}
}

func TestMergedAndMultipleSchedulesAgree(t *testing.T) {
	cfg := smallConfig()
	run := func(merged bool) float64 {
		cfg := cfg
		cfg.Merged = merged
		var sum float64
		results := make([]*ProcResult, 3)
		comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		sum = results[0].Checksum
		return sum
	}
	a, b := run(true), run(false)
	if math.Abs(a-b) > 1e-9*math.Abs(a) {
		t.Errorf("merged %v vs multiple %v checksums differ", a, b)
	}
}

func TestMergedSchedulesReduceCommunication(t *testing.T) {
	// The Table 3 shape: merged schedules move fewer bytes and less
	// communication time than per-loop schedules.
	cfg := smallConfig()
	cfg.Steps = 4
	volume := func(merged bool) (int64, float64) {
		cfg := cfg
		cfg.Merged = merged
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, cfg)
		})
		return rep.TotalBytesSent(), rep.MeanCommTime()
	}
	mergedBytes, mergedComm := volume(true)
	multiBytes, multiComm := volume(false)
	if mergedBytes >= multiBytes {
		t.Errorf("merged sent %d bytes, multiple %d: merging must reduce volume", mergedBytes, multiBytes)
	}
	if mergedComm >= multiComm {
		t.Errorf("merged comm %.6fs, multiple %.6fs: merging must reduce comm time", mergedComm, multiComm)
	}
}

func TestPartitionersProduceBalancedRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 4
	for _, part := range []string{"rcb", "rib", "chain", "block"} {
		cfg := cfg
		cfg.Partitioner = part
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, cfg)
		})
		if lb := rep.LoadBalance(); lb > 2.0 {
			t.Errorf("partitioner %s load balance %v", part, lb)
		}
	}
}

func TestRemapEveryRuns(t *testing.T) {
	// The Table 6 scenario: periodic repartitioning alternating RCB/RIB.
	cfg := smallConfig()
	cfg.Steps = 8
	cfg.NBEvery = 2
	cfg.RemapEvery = 4
	cfg.AlternatePartitioners = true
	_, wantSum := Reference(cfg)
	results := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-wantSum) > 1e-9*math.Abs(wantSum) {
		t.Errorf("remapped run checksum %v, want %v", results[0].Checksum, wantSum)
	}
	if results[0].Phases[PhasePartition] <= 0 || results[0].Phases[PhaseSchedRegen] <= 0 {
		t.Errorf("phase accounting missing: %v", results[0].Phases)
	}
}

func TestScalingShape(t *testing.T) {
	// Table 1 shape: computation time scales down with processors; the
	// load-balance index stays near 1 with weighted RCB.
	cfg := DefaultConfig().scaled(1200)
	cfg.Steps = 6
	cfg.NBEvery = 3
	var compTimes []float64
	for _, nprocs := range []int{1, 2, 4, 8} {
		rep := comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, cfg)
		})
		compTimes = append(compTimes, rep.MeanComputeTime())
		if nprocs > 1 {
			if lb := rep.LoadBalance(); lb > 1.6 {
				t.Errorf("nprocs=%d load balance %v", nprocs, lb)
			}
		}
	}
	for i := 1; i < len(compTimes); i++ {
		if compTimes[i] >= compTimes[i-1] {
			t.Errorf("compute time did not shrink: %v", compTimes)
		}
	}
	// Near-linear overall: 8 procs at least 4x less compute than 1.
	if compTimes[3] > compTimes[0]/4 {
		t.Errorf("weak scaling: seq %v vs 8p %v", compTimes[0], compTimes[3])
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad partitioner did not panic")
			}
		}()
		cfg := smallConfig()
		cfg.Partitioner = "magic"
		Run(p, cfg)
	})
}

// TestConfigValidate: Validate reports what Run would panic with, as an
// error, so a launcher can refuse it before any rank starts.
func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("good config refused: %v", err)
	}
	for want, mutate := range map[string]func(*Config){
		"charmm: unknown partitioner magic":                                func(c *Config) { c.Partitioner = "magic" },
		"charmm: CheckpointEvery set without CheckpointDir":                func(c *Config) { c.CheckpointEvery = 2 },
		`adapt: bad mode "periodic:0" (want static, periodic:N or policy)`: func(c *Config) { c.Adapt = "periodic:0" },
	} {
		bad := smallConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate returned %v, want %q", err, want)
		}
	}
}
