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
	cfg.Remap = "4"
	cfg.Partitioner = "chain"
	return cfg
}

// runAll runs cfg on n ranks and returns every rank's result and the run's
// report.
func runAll(n int, cfg Config) ([]*ProcResult, *comm.Report) {
	results := make([]*ProcResult, n)
	rep := comm.Run(n, costmodel.IPSC860(), func(p *comm.Proc) { results[p.Rank()] = Run(p, cfg) })
	return results, rep
}

func TestGenMoleculesDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := genMolecules(cfg)
	b := genMolecules(cfg)
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
	mols := genMolecules(cfg)
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
	if c := cellOf(&cfg, m); c != 11*12 { // x-slowest ordering
		t.Errorf("cellOf = %d", c)
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
	mols := genMolecules(cfg)
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
	a := genMolecules(cfg)
	b := genMolecules(cfg)
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

func TestRemapPoliciesPreservePhysics(t *testing.T) {
	cfg := small3D()
	_, want := Reference(cfg)
	for _, part := range []string{"chain", "rcb", "rib", "block"} {
		cfg := cfg
		cfg.Partitioner = part
		results, _ := runAll(4, cfg)
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
		_, rep := runAll(8, cfg)
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
	exec := func(part, remap string) float64 {
		cfg := cfg
		cfg.Partitioner = part
		cfg.Remap = remap
		_, rep := runAll(8, cfg)
		return rep.MaxClock()
	}
	static := exec("block", "0")
	chain := exec("chain", "10")
	if chain >= static {
		t.Errorf("chain remapping %.4fs not better than static %.4fs", chain, static)
	}
}

func TestSlotCapOverflowPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.Mover = MoverRegular
	cfg.slotCap = 1 // guaranteed overflow
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
		"dsmc: unknown mover teleport":                                   func(c *Config) { c.Mover = "teleport" },
		"dsmc: NMols is -1, want at least 0":                             func(c *Config) { c.NMols = -1 },
		"dsmc: unknown partitioner voronoi":                              func(c *Config) { c.Partitioner = "voronoi" },
		"dsmc: SlotCap must be positive":                                 func(c *Config) { c.slotCap = 0 },
		"dsmc: CheckpointEvery set without CheckpointDir":                func(c *Config) { c.CheckpointEvery = 2 },
		"dsmc: CheckpointDir set without CheckpointEvery or ResumeFrom":  func(c *Config) { c.CheckpointDir = "D" },
		"dsmc: CrashRank is 1 without a CrashStep":                       func(c *Config) { c.CrashRank = 1 },
		`adapt: decision verification needs remap "policy", not ""`:      func(c *Config) { c.AdaptVerify = true },
		`adapt: bad remap "often" (want a step count, static or policy)`: func(c *Config) { c.Remap = "often" },
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
	_, rep := runAll(2, cfg)
	for r, ph := range rep.Phases {
		if ph[PhaseMove] <= 0 || ph[PhaseCollide] <= 0 {
			t.Errorf("rank %d: missing move/collide time: %v", r, ph)
		}
		if ph[phasePartition] <= 0 || ph[phaseRemap] <= 0 {
			t.Errorf("rank %d: missing partition/remap time: %v", r, ph)
		}
	}
}

func TestZeroMolecules(t *testing.T) {
	cfg := smallConfig()
	cfg.NMols = 0
	for _, mover := range []Mover{MoverLight, MoverRegular, MoverCompiler} {
		cfg := cfg
		cfg.Mover = mover
		results, _ := runAll(3, cfg)
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
	results, _ := runAll(6, cfg)
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestCompilerMoverWithRemapping(t *testing.T) {
	cfg := small3D()
	cfg.Mover = MoverCompiler
	_, want := Reference(cfg)
	results, _ := runAll(4, cfg)
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

// TestCollideCostFollowsGeometry: the collision phase charges 1500 flops per
// molecule in 3-D and 350 in 2-D, read off NZ whatever preset the
// configuration started from.
func TestCollideCostFollowsGeometry(t *testing.T) {
	flat3D := Default3D()
	flat3D.NZ = 1
	deep2D := Default2D(12)
	deep2D.NZ = 2
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"Default2D", Default2D(12), 350},
		{"smallConfig", smallConfig(), 350},
		{"Default3D", Default3D(), 1500},
		{"small3D", small3D(), 1500},
		{"Default3D with NZ 1", flat3D, 350},
		{"Default2D with NZ 2", deep2D, 1500},
	} {
		if got := c.cfg.collideCost(); got != c.want {
			t.Errorf("%s (NZ %d): %d collision flops per molecule, want %d", c.name, c.cfg.NZ, got, c.want)
		}
	}
}
