// Package workload is the one definition of the four benchmark workloads, in
// the order BENCHMARK.json declares them (and says why each exists), and of
// their variants: the rows of the workload oracle (DESIGN.md, "The workload
// oracle").
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// A Workload is one fixed configuration of one of the applications: only
// the seed varies between runs, and a short size stands in for it in tests.
type Workload struct {
	Name     string
	Variants []string // the oracle's rows; the first is the benchmark's
	Phases   []string // measured phase keys every run charges
	// Prepare binds a variant to a seed at the full or the short size.
	Prepare func(variant string, seed int64, short bool) *Instance
}

// An Instance is a variant bound to a size and a seed: Body runs it on one
// rank under r (zero: a plain run) and returns that rank's answer; Reference
// solves the same problem apart and checks a parallel run's per-rank
// answers. Every, the checkpoint interval, is 0 without a checkpoint path.
type Instance struct {
	Body      func(p *comm.Proc, r checkpoint.Recovery) any
	Reference func() func(answers []any) error
	Every     int
}

// charmmAnswer is a hand-coded CHARMM rank's answer: its result and its
// final atoms.
type charmmAnswer struct {
	*charmm.ProcResult
	*charmm.FinalState
}

// Workloads lists the four workloads in BENCHMARK.json's order.
var Workloads = []Workload{
	{
		Name:     "charmm-md",
		Variants: []string{"merged", "multiple", "compiled", "remapped"},
		Phases:   []string{charmm.PhaseExecutor, charmm.PhaseNBList, charmm.PhasePartition, charmm.PhaseSchedRegen},
		Prepare: func(variant string, seed int64, short bool) *Instance {
			cfg := charmm.ConfigForAtoms(8000)
			cfg.Steps, cfg.NBEvery = 20, 5
			if short {
				cfg = charmm.ConfigForAtoms(300)
				cfg.Steps, cfg.NBEvery = 4, 2
			}
			cfg.Seed, cfg.Partitioner, cfg.Merged = seed, "rcb", variant != "multiple"
			in := &Instance{
				Body: func(p *comm.Proc, r checkpoint.Recovery) any {
					cfg := cfg
					cfg.Recovery = r
					res, fin := charmm.RunKeepState(p, cfg)
					return charmmAnswer{res, fin}
				},
				Reference: func() func([]any) error {
					_, want := charmm.Reference(cfg)
					return checksumWithin(want)
				},
				Every: cfg.Steps / 2,
			}
			if variant == "compiled" || variant == "remapped" {
				// Fully adaptive: repartitioned RCB and RIB in turn, with a
				// list update between two repartitions.
				cfg.NBEvery, cfg.Remap, cfg.AlternatePartitioners = 3, "2", true
			}
			if variant == "compiled" {
				in.Body, in.Every = func(p *comm.Proc, _ checkpoint.Recovery) any { return charmmAnswer{charmm.RunCompiled(p, cfg), nil} }, 0
			}
			return in
		},
	},
	{
		Name:     "dsmc-regular",
		Variants: []string{"regular", "light", "compiler", "remapped"},
		Phases:   []string{dsmc.PhaseMove, dsmc.PhaseCollide},
		Prepare: func(variant string, seed int64, short bool) *Instance {
			cfg := dsmc.Default2D(48)
			cfg.NMols, cfg.Steps = 18432, 60
			if short {
				cfg = dsmc.Default2D(8)
				cfg.NMols, cfg.Steps = 256, 5
			}
			if variant == "remapped" {
				// A skewed start that RCB rebalances every other step.
				cfg.InitSlabFrac, cfg.Remap, cfg.Partitioner, variant = 0.5, "2", "rcb", "light"
			}
			return dsmcInstance(cfg, variant, seed)
		},
	},
	{
		Name:     "kernel-remap",
		Variants: []string{"compiled", "hand"},
		Phases:   []string{"setup", "inspector", "partition", "remap", "executor"},
		Prepare: func(variant string, seed int64, short bool) *Instance {
			cfg := charmm.KernelConfig{NAtoms: 8000, Iters: 24, RemapEvery: 6, Seed: seed}
			if short {
				cfg.NAtoms, cfg.Iters, cfg.RemapEvery = 300, 4, 2
			}
			run := charmm.RunKernelCompiled
			if variant == "hand" {
				run = charmm.RunKernelHand
			}
			return &Instance{
				Body: func(p *comm.Proc, _ checkpoint.Recovery) any { return run(p, cfg) },
				Reference: func() func([]any) error {
					// No sequential twin: the compiled 1-rank run is the oracle.
					var want float64
					comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) { want = charmm.RunKernelCompiled(p, cfg).Checksum })
					return checksumWithin(want)
				},
			}
		},
	},
	{
		Name:     "dsmc-finegrain",
		Variants: []string{"light"},
		Phases:   []string{dsmc.PhaseMove, dsmc.PhaseCollide},
		Prepare: func(variant string, seed int64, short bool) *Instance {
			cfg := dsmc.Default2D(16)
			cfg.NMols, cfg.Steps = 1024, 1500
			if short {
				cfg.NMols, cfg.Steps = 128, 20
			}
			return dsmcInstance(cfg, variant, seed)
		},
	},
}

// checksumWithin checks that every rank's checksum is within 1e-9 of want,
// relative, and that want is not the zero of a run that did nothing.
func checksumWithin(want float64) func([]any) error {
	return func(answers []any) error {
		if want == 0 {
			return errors.New("the reference checksum is 0: the run did nothing")
		}
		for r, a := range answers {
			got := math.NaN()
			switch a := a.(type) {
			case charmmAnswer:
				got = a.Checksum
			case *charmm.KernelResult:
				got = a.Checksum
			}
			if !(math.Abs(got-want) <= 1e-9*math.Abs(want)) {
				return fmt.Errorf("rank %d checksum %.17g, reference %.17g", r, got, want)
			}
		}
		return nil
	}
}

// dsmcInstance holds a DSMC variant (its mover) to the sequential reference
// bit for bit: the ranks' final molecule records, in id order, must equal
// the reference population. (dsmc.Run's checksum sums in rank-layout order,
// so it cannot be compared bitwise.)
func dsmcInstance(cfg dsmc.Config, mover string, seed int64) *Instance {
	cfg.Mover, cfg.Seed = dsmc.Mover(mover), seed
	return &Instance{
		Body: func(p *comm.Proc, r checkpoint.Recovery) any {
			cfg := cfg
			cfg.Recovery = r
			return dsmc.RunKeepMols(p, cfg)
		},
		Every: cfg.Steps / 2,
		Reference: func() func([]any) error {
			want, _ := dsmc.Reference(cfg)
			return func(answers []any) error {
				got := population(answers)
				if len(got) != len(want) {
					return fmt.Errorf("%d molecule values, reference has %d", len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						return fmt.Errorf("molecule value %d is %v, reference %v", i, got[i], want[i])
					}
				}
				return nil
			}
		},
	}
}

// population is the final molecule records of a DSMC run's ranks, in id
// order.
func population(answers []any) []float64 {
	var all []float64
	for _, a := range answers {
		all = append(all, a.([]float64)...)
	}
	return dsmc.SortByID(all)
}
