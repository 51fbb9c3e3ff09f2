package charmm

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

func TestTinyProblemManyProcs(t *testing.T) {
	// More processors than atoms: some ranks own nothing at various
	// stages; everything must still complete and agree with the reference.
	cfg := DefaultConfig().scaled(6)
	cfg.Steps = 4
	cfg.NBEvery = 2
	_, want := Reference(cfg)
	for _, nprocs := range []int{4, 8} {
		results, _ := runAll(nprocs, cfg, Run)
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("nprocs=%d checksum %v, want %v", nprocs, results[0].Checksum, want)
		}
	}
}

func TestSingleAtom(t *testing.T) {
	cfg := DefaultConfig().scaled(1)
	cfg.Steps = 3
	cfg.NBEvery = 1
	_, want := Reference(cfg)
	results, _ := runAll(2, cfg, Run)
	if math.Abs(results[0].Checksum-want) > 1e-12 {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestZeroSteps(t *testing.T) {
	cfg := DefaultConfig().scaled(40)
	cfg.Steps = 0
	results, _ := runAll(2, cfg, Run)
	if results[0].Checksum <= 0 {
		t.Errorf("checksum %v after zero steps", results[0].Checksum)
	}
}

func TestChainPartitionerOnCharmm(t *testing.T) {
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 4
	cfg.NBEvery = 2
	cfg.Partitioner = "chain"
	_, want := Reference(cfg)
	results, _ := runAll(3, cfg, Run)
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("chain checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestKernelWithoutRemaps(t *testing.T) {
	cfg := smallKernelConfig()
	cfg.RemapEvery = 0
	hand := make([]*KernelResult, 2)
	compiled := make([]*KernelResult, 2)
	rep := comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		hand[p.Rank()] = RunKernelHand(p, cfg)
	})
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		compiled[p.Rank()] = RunKernelCompiled(p, cfg)
	})
	if math.Abs(hand[0].Checksum-compiled[0].Checksum) > 1e-9*math.Abs(hand[0].Checksum) {
		t.Errorf("no-remap kernel checksums differ: %v vs %v", hand[0].Checksum, compiled[0].Checksum)
	}
	if rep.Phases[0]["partition"] != 0 || rep.Phases[0]["remap"] != 0 {
		t.Errorf("no-remap run reported partition/remap time: %v", rep.Phases[0])
	}
}

func TestCompiledAppNearHandPerformance(t *testing.T) {
	cfg := DefaultConfig().scaled(1200)
	cfg.Steps = 8
	cfg.NBEvery = 4
	exec := func(run func(p *comm.Proc, cfg Config) *ProcResult) float64 {
		_, rep := runAll(4, cfg, run)
		return rep.MaxClock()
	}
	hand := exec(Run)
	compiled := exec(RunCompiled)
	if compiled > hand*1.25 {
		t.Errorf("compiled app %.4fs more than 25%% over hand-coded %.4fs", compiled, hand)
	}
}

// TestCompiledAppUnderPolicy: the compiled variant takes its remap decisions
// from the same adapt.Trigger as the hand-parallelized one, so Remap "policy"
// — refused with a panic while the choreography existed only in Run — runs,
// every rank agrees on when it remapped (AdaptVerify cross-checks each
// decision), and the physics stays the reference's.
func TestCompiledAppUnderPolicy(t *testing.T) {
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 12
	cfg.NBEvery = 3
	cfg.Partitioner = "block" // a poor partition, so the policy has skew to act on
	cfg.Remap = "policy"
	cfg.AdaptVerify = true
	_, want := Reference(cfg)
	const nprocs = 3
	results, _ := runAll(nprocs, cfg, RunCompiled)
	for r, res := range results {
		if !slices.Equal(res.RemapSteps, results[0].RemapSteps) {
			t.Errorf("rank %d remapped at %v, rank 0 at %v", r, res.RemapSteps, results[0].RemapSteps)
		}
	}
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("compiled checksum under policy %v, want %v", results[0].Checksum, want)
	}
}

// TestCompiledRefusesCheckpoints: RunCompiled writes no checkpoint and
// resumes none, so asking it to is a configuration error: it panics with a
// Validate-style complaint instead of quietly running without the recovery
// it was asked for, while the hand-coded run takes the same configuration.
func TestCompiledRefusesCheckpoints(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"checkpoint": func(c *Config) { c.CheckpointEvery, c.CheckpointDir = 2, t.TempDir() },
		"resume":     func(c *Config) { c.ResumeFrom = t.TempDir() },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: Validate refused the hand-coded run's configuration: %v", name, err)
		}
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			defer func() {
				const want = "charmm: the compiled run writes no checkpoints and resumes none"
				if got, _ := recover().(string); !strings.HasPrefix(got, want) {
					t.Errorf("%s: RunCompiled panicked with %q, want %q...", name, got, want)
				}
			}()
			RunCompiled(p, cfg)
		})
	}
}
