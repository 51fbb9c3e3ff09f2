package dsmc

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

func smallConfig() Config {
	cfg := Default2D(12)
	cfg.NMols = 600
	cfg.Steps = 8
	return cfg
}

func small3D() Config {
	cfg := Default3D()
	cfg.NX, cfg.NY, cfg.NZ = 64, 4, 4
	cfg.NMols = 700
	cfg.Steps = 10
	cfg.RemapEvery = 4
	cfg.Partitioner = "chain"
	return cfg
}

func TestGenMoleculesDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := GenMolecules(cfg)
	b := GenMolecules(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("molecules differ at %d", i)
		}
	}
	// IDs unique and in range; positions inside the domain.
	seen := map[float64]bool{}
	for i := 0; i < cfg.NMols; i++ {
		m := a[i*recordWidth:]
		if seen[m[0]] {
			t.Fatalf("duplicate id %v", m[0])
		}
		seen[m[0]] = true
		if m[1] < 0 || m[1] >= float64(cfg.NX) || m[2] < 0 || m[2] >= float64(cfg.NY) {
			t.Fatalf("molecule %d out of domain: %v %v", i, m[1], m[2])
		}
	}
}

func TestDriftDirection(t *testing.T) {
	// More than 70% of molecules should move along +x, as in the paper.
	cfg := Default2D(48)
	mols := GenMolecules(cfg)
	pos := 0
	for i := 0; i < cfg.NMols; i++ {
		if mols[i*recordWidth+4] > 0 {
			pos++
		}
	}
	if frac := float64(pos) / float64(cfg.NMols); frac < 0.7 {
		t.Errorf("only %.0f%% of molecules move along +x, want >= 70%%", frac*100)
	}
}

func TestCellOfAndWrap(t *testing.T) {
	cfg := smallConfig()
	m := []float64{0, 11.9, 0.1, 0, 1, 0, 0}
	if c := CellOf(&cfg, m); c != 11*12 { // x-slowest ordering
		t.Errorf("CellOf = %d", c)
	}
	advance(&cfg, m, 0.5) // x: 11.9+0.5 wraps to 0.4
	if math.Abs(m[1]-0.4) > 1e-12 {
		t.Errorf("wrapped x = %v", m[1])
	}
	if wrap(-0.25, 12) != 11.75 {
		t.Errorf("wrap(-0.25) = %v", wrap(-0.25, 12))
	}
}

func TestCollideCellConservesMomentumComponents(t *testing.T) {
	cfg := smallConfig()
	mols := GenMolecules(cfg)
	members := []int{0, recordWidth, 2 * recordWidth, 3 * recordWidth}
	var before [3]float64
	for _, off := range members {
		before[0] += mols[off+4]
		before[1] += mols[off+5]
		before[2] += mols[off+6]
	}
	collideCell(&cfg, mols, members, 5, 3)
	var after [3]float64
	for _, off := range members {
		after[0] += mols[off+4]
		after[1] += mols[off+5]
		after[2] += mols[off+6]
	}
	for d := 0; d < 3; d++ {
		if math.Abs(before[d]-after[d]) > 1e-12 {
			t.Errorf("velocity component %d not conserved: %v -> %v", d, before[d], after[d])
		}
	}
}

func TestCollideCellOrderIndependent(t *testing.T) {
	cfg := smallConfig()
	a := GenMolecules(cfg)
	b := GenMolecules(cfg)
	// Same set of members presented in different orders must produce the
	// same final state.
	ma := []int{0, recordWidth, 2 * recordWidth, 3 * recordWidth, 4 * recordWidth}
	mb := []int{4 * recordWidth, 2 * recordWidth, 0, 3 * recordWidth, recordWidth}
	collideCell(&cfg, a, ma, 9, 2)
	collideCell(&cfg, b, mb, 9, 2)
	for i := 0; i < 5*recordWidth; i++ {
		if a[i] != b[i] {
			t.Fatalf("collision depends on member order at %d", i)
		}
	}
}

// gatherAll collects every rank's molecules on the caller (all ranks).
func gatherAll(p *comm.Proc, mols []float64) []float64 {
	var out []float64
	for _, b := range p.AllGather(comm.EncodeF64(mols)) {
		out = append(out, comm.DecodeF64(b)...)
	}
	return out
}

func TestParallelMatchesReferenceBitExact(t *testing.T) {
	cfg := smallConfig()
	wantMols, _ := Reference(cfg)
	for _, mover := range []Mover{MoverLight, MoverRegular} {
		for _, nprocs := range []int{1, 2, 4} {
			cfg := cfg
			cfg.Mover = mover
			fail := make([]string, nprocs)
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				// Re-run the simulation, then gather and sort by id.
				res := runAndGather(p, cfg)
				if len(res) != len(wantMols) {
					fail[p.Rank()] = "length mismatch"
					return
				}
				for i := range res {
					if res[i] != wantMols[i] {
						fail[p.Rank()] = "value mismatch"
						return
					}
				}
			})
			for r, f := range fail {
				if f != "" {
					t.Errorf("mover=%s nprocs=%d rank=%d: %s", mover, nprocs, r, f)
				}
			}
		}
	}
}

// runAndGather runs the simulation inline (duplicating Run's loop) so the
// final distributed molecule population can be gathered and compared.
func runAndGather(p *comm.Proc, cfg Config) []float64 {
	res := RunKeepMols(p, cfg)
	return SortByID(gatherAll(p, res))
}

func TestRemapPoliciesPreservePhysics(t *testing.T) {
	cfg := small3D()
	_, want := Reference(cfg)
	for _, part := range []string{"chain", "rcb", "rib", "block"} {
		cfg := cfg
		cfg.Partitioner = part
		results := make([]*ProcResult, 4)
		comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("partitioner %s: checksum %v, want %v", part, results[0].Checksum, want)
		}
	}
}

func TestLightMoverCheaperThanRegular(t *testing.T) {
	// The Table 4 shape: light-weight schedules beat regular schedules.
	cfg := Default2D(16)
	cfg.NMols = 2000
	cfg.Steps = 10
	exec := func(m Mover) float64 {
		cfg := cfg
		cfg.Mover = m
		rep := comm.Run(8, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, cfg)
		})
		return rep.MaxClock()
	}
	light, regular := exec(MoverLight), exec(MoverRegular)
	if light >= regular {
		t.Errorf("light %.4fs not cheaper than regular %.4fs", light, regular)
	}
}

func TestRemappingBeatsStaticUnderDrift(t *testing.T) {
	// The Table 5 shape at moderate processor counts.
	cfg := small3D()
	cfg.NMols = 3000
	cfg.Steps = 30
	cfg.RemapEvery = 10
	exec := func(part string, remapEvery int) float64 {
		cfg := cfg
		cfg.Partitioner = part
		cfg.RemapEvery = remapEvery
		rep := comm.Run(8, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, cfg)
		})
		return rep.MaxClock()
	}
	static := exec("block", 0)
	chain := exec("chain", 10)
	if chain >= static {
		t.Errorf("chain remapping %.4fs not better than static %.4fs", chain, static)
	}
}

func TestSlotCapOverflowPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.Mover = MoverRegular
	cfg.SlotCap = 1 // guaranteed overflow
	defer func() {
		if recover() == nil {
			t.Error("slot overflow did not panic")
		}
	}()
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, cfg)
	})
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("good config refused: %v", err)
	}
	for want, mutate := range map[string]func(*Config){
		"dsmc: unknown mover teleport":                                func(c *Config) { c.Mover = "teleport" },
		"dsmc: unknown partitioner voronoi":                           func(c *Config) { c.Partitioner = "voronoi" },
		"dsmc: SlotCap must be positive":                              func(c *Config) { c.SlotCap = 0 },
		"dsmc: CheckpointEvery set without CheckpointDir":             func(c *Config) { c.CheckpointEvery = 2 },
		`adapt: bad mode "often" (want static, periodic:N or policy)`: func(c *Config) { c.Adapt = "often" },
	} {
		bad := smallConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Errorf("Validate returned %v, want %q", err, want)
		}
	}
}

func TestPhaseAccounting(t *testing.T) {
	cfg := small3D()
	results := make([]*ProcResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	for r, res := range results {
		if res.Phases[PhaseMove] <= 0 || res.Phases[PhaseCollide] <= 0 {
			t.Errorf("rank %d: missing move/collide time: %v", r, res.Phases)
		}
		if res.Phases[PhasePartition] <= 0 || res.Phases[PhaseRemap] <= 0 {
			t.Errorf("rank %d: missing partition/remap time: %v", r, res.Phases)
		}
		if res.MoveTime != res.Phases[PhaseMove] {
			t.Errorf("rank %d: MoveTime mismatch", r)
		}
	}
}

func TestCompilerMoverMatchesManual(t *testing.T) {
	// Table 7: compiler-generated MOVE (REDUCE(APPEND) + new_size
	// recomputation) must produce identical physics and cost more than the
	// manual light-schedule version.
	cfg := smallConfig()
	_, want := Reference(cfg)
	exec := func(m Mover) (float64, float64, float64) {
		cfg := cfg
		cfg.Mover = m
		results := make([]*ProcResult, 4)
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		return results[0].Checksum, rep.MaxClock(), results[0].MoveTime
	}
	sumM, totM, moveM := exec(MoverLight)
	sumC, totC, moveC := exec(MoverCompiler)
	if math.Abs(sumM-want) > 1e-9*math.Abs(want) || math.Abs(sumC-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksums: manual %v compiler %v want %v", sumM, sumC, want)
	}
	if moveC <= moveM {
		t.Errorf("compiler move %.4fs not slower than manual %.4fs (no extra comm?)", moveC, moveM)
	}
	if totC <= totM {
		t.Errorf("compiler total %.4fs not slower than manual %.4fs", totC, totM)
	}
}

func TestZeroMolecules(t *testing.T) {
	cfg := smallConfig()
	cfg.NMols = 0
	for _, mover := range []Mover{MoverLight, MoverRegular, MoverCompiler} {
		cfg := cfg
		cfg.Mover = mover
		results := make([]*ProcResult, 3)
		comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		if results[0].Checksum != 0 {
			t.Errorf("mover=%s: checksum %v for empty system", mover, results[0].Checksum)
		}
	}
}

func TestMoreProcsThanCells(t *testing.T) {
	cfg := Default2D(2) // 4 cells
	cfg.NMols = 40
	cfg.Steps = 5
	_, want := Reference(cfg)
	results := make([]*ProcResult, 6)
	comm.Run(6, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestCompilerMoverWithRemapping(t *testing.T) {
	cfg := small3D()
	cfg.Mover = MoverCompiler
	_, want := Reference(cfg)
	results := make([]*ProcResult, 4)
	comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestCollideCostKnob(t *testing.T) {
	cfg := smallConfig()
	base := cfg.collideCost()
	cfg.CollideFlops = 2 * base
	if cfg.collideCost() != 2*base {
		t.Errorf("collideCost = %d, want %d", cfg.collideCost(), 2*base)
	}
	// Doubling the knob must increase modeled compute.
	run := func(c Config) float64 {
		rep := comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
			Run(p, c)
		})
		return rep.MeanComputeTime()
	}
	small := smallConfig()
	big := smallConfig()
	big.CollideFlops = 4 * base
	if run(big) <= run(small) {
		t.Error("raising CollideFlops did not increase modeled compute time")
	}
}
