package charmm

import (
	"math"
	"slices"
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
		results := make([]*ProcResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
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
	results := make([]*ProcResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-12 {
		t.Errorf("checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestZeroSteps(t *testing.T) {
	cfg := DefaultConfig().scaled(40)
	cfg.Steps = 0
	results := make([]*ProcResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
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
	results := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = Run(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("chain checksum %v, want %v", results[0].Checksum, want)
	}
}

func TestKernelWithoutRemaps(t *testing.T) {
	cfg := smallKernelConfig()
	cfg.RemapEvery = 0
	hand := make([]*KernelResult, 2)
	compiled := make([]*KernelResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		hand[p.Rank()] = RunKernelHand(p, cfg)
	})
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		compiled[p.Rank()] = RunKernelCompiled(p, cfg)
	})
	if math.Abs(hand[0].Checksum-compiled[0].Checksum) > 1e-9*math.Abs(hand[0].Checksum) {
		t.Errorf("no-remap kernel checksums differ: %v vs %v", hand[0].Checksum, compiled[0].Checksum)
	}
	if hand[0].Partition != 0 || hand[0].Remap != 0 {
		t.Errorf("no-remap run reported partition/remap time: %+v", hand[0])
	}
}

func TestTranslationTableKinds(t *testing.T) {
	// The whole application must work with all three translation-table
	// storage modes of §3.1 and produce identical physics.
	cfg := DefaultConfig().scaled(300)
	cfg.Steps = 4
	cfg.NBEvery = 2
	_, want := Reference(cfg)
	for _, kind := range []string{"replicated", "distributed", "paged"} {
		cfg := cfg
		cfg.TableKind = kind
		results := make([]*ProcResult, 3)
		comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = Run(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("kind=%s checksum %v, want %v", kind, results[0].Checksum, want)
		}
	}
}

func TestUnknownTableKindPanics(t *testing.T) {
	comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unknown table kind did not panic")
			}
		}()
		cfg := DefaultConfig().scaled(10)
		cfg.TableKind = "holographic"
		Run(p, cfg)
	})
}

func TestCompiledAppMatchesHandAndReference(t *testing.T) {
	// The fully compiled adaptive application (PairLoop + SumLoop +
	// automatic re-preprocessing) must reproduce the hand-parallelized
	// physics, including under periodic repartitioning.
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 6
	cfg.NBEvery = 3
	_, want := Reference(cfg)
	for _, nprocs := range []int{1, 3} {
		results := make([]*ProcResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			results[p.Rank()] = RunCompiled(p, cfg)
		})
		if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("nprocs=%d compiled checksum %v, want %v", nprocs, results[0].Checksum, want)
		}
		if results[0].NBEntries == 0 {
			t.Errorf("nprocs=%d: empty non-bonded list", nprocs)
		}
	}

	// With remapping (the fully adaptive scenario).
	cfg.RemapEvery = 4
	cfg.AlternatePartitioners = true
	_, want = Reference(cfg)
	results := make([]*ProcResult, 3)
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = RunCompiled(p, cfg)
	})
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("remapped compiled checksum %v, want %v", results[0].Checksum, want)
	}
	if results[0].Phases[PhaseSchedRegen] <= 0 {
		t.Errorf("no schedule regeneration recorded: %v", results[0].Phases)
	}
}

func TestCompiledAppNearHandPerformance(t *testing.T) {
	cfg := DefaultConfig().scaled(1200)
	cfg.Steps = 8
	cfg.NBEvery = 4
	exec := func(run func(p *comm.Proc, cfg Config) *ProcResult) float64 {
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			run(p, cfg)
		})
		return rep.MaxClock()
	}
	hand := exec(Run)
	compiled := exec(RunCompiled)
	if compiled > hand*1.25 {
		t.Errorf("compiled app %.4fs more than 25%% over hand-coded %.4fs", compiled, hand)
	}
}

// TestCompiledAppUnderPolicy: the compiled variant takes its remap decisions
// from the same adapt.Trigger as the hand-parallelized one, so Adapt "policy"
// — refused with a panic while the choreography existed only in Run — runs,
// every rank agrees on when it remapped (AdaptVerify cross-checks each
// decision), and the physics stays the reference's.
func TestCompiledAppUnderPolicy(t *testing.T) {
	cfg := DefaultConfig().scaled(450)
	cfg.Steps = 12
	cfg.NBEvery = 3
	cfg.Partitioner = "block" // a poor partition, so the policy has skew to act on
	cfg.Adapt = "policy"
	cfg.AdaptVerify = true
	_, want := Reference(cfg)
	const nprocs = 3
	results := make([]*ProcResult, nprocs)
	comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = RunCompiled(p, cfg)
	})
	for r, res := range results {
		if !slices.Equal(res.RemapSteps, results[0].RemapSteps) {
			t.Errorf("rank %d remapped at %v, rank 0 at %v", r, res.RemapSteps, results[0].RemapSteps)
		}
	}
	if math.Abs(results[0].Checksum-want) > 1e-9*math.Abs(want) {
		t.Errorf("compiled checksum under policy %v, want %v", results[0].Checksum, want)
	}
}
