package main

import (
	"fmt"
	"math"

	"repro/internal/charmm"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// A workload is one fixed configuration of one of the repository's
// applications. Sizes are constants of the benchmark: only the seed varies
// between runs. `short` selects a toy size for the smoke test.
type workload struct {
	name string
	why  string
	// prepare returns the instance for a seed.
	prepare func(seed int64, short bool) *instance
}

// instance is a workload bound to a seed.
type instance struct {
	// body runs the application on one rank and returns that rank's answer.
	body func(p *comm.Proc) any
	// reference solves the same problem sequentially and returns a checker
	// that compares the per-rank answers of a parallel run with it.
	reference func() func(answers []any) error
}

// workloads lists the four workloads in the order BENCHMARK.json declares
// them. Each is bound to one layer of the stack; the traced pass's
// dominance check (trace.go) fails the run if it stops stressing it.
var workloads = []workload{
	{
		name: "charmm-md",
		why:  "compute-bound: schedules built rarely and reused every step, few large messages; executor and pack/unpack work shows here, substrate work must not",
		prepare: func(seed int64, short bool) *instance {
			cfg := charmm.ConfigForAtoms(8000)
			cfg.Steps, cfg.NBEvery = 20, 5
			if short {
				cfg = charmm.ConfigForAtoms(300)
				cfg.Steps, cfg.NBEvery = 4, 2
			}
			cfg.Seed = seed
			cfg.Partitioner, cfg.Merged = "rcb", true
			return &instance{
				body: func(p *comm.Proc) any { return charmm.Run(p, cfg).Checksum },
				reference: func() func([]any) error {
					_, want := charmm.Reference(cfg)
					return checksumWithin(want, 1e-9)
				},
			}
		},
	},
	{
		name: "dsmc-regular",
		why:  "inspector-bound: regular schedules rebuilt every step, so hashtab, ttable dereference and schedule.Build dominate",
		prepare: func(seed int64, short bool) *instance {
			cfg := dsmc.Default2D(48)
			cfg.NMols, cfg.Steps = 18432, 60
			if short {
				cfg = dsmc.Default2D(8)
				cfg.NMols, cfg.Steps = 256, 5
			}
			cfg.Mover = dsmc.MoverRegular
			return dsmcInstance(cfg, seed)
		},
	},
	{
		name: "kernel-remap",
		why:  "remap-bound, and the only run through the compile-time path: loopir inspector/executor with RCB/RIB repartition and Redistribute every 6 iterations",
		prepare: func(seed int64, short bool) *instance {
			cfg := charmm.KernelConfig{NAtoms: 8000, Iters: 24, RemapEvery: 6, Seed: seed}
			if short {
				cfg.NAtoms, cfg.Iters, cfg.RemapEvery = 300, 4, 2
			}
			body := func(p *comm.Proc) any { return charmm.RunKernelCompiled(p, cfg).Checksum }
			return &instance{
				body: body,
				reference: func() func([]any) error {
					// The kernel has no sequential twin; its 1-rank run
					// (nothing to communicate) is the oracle. RunMeasured
					// gives the rank a thread of its own to pin.
					var want float64
					comm.RunMeasured(1, costmodel.IPSC860(), func(p *comm.Proc) {
						defer pinThread(0)()
						want = body(p).(float64)
					})
					return checksumWithin(want, 1e-9)
				},
			}
		},
	},
	{
		name: "dsmc-finegrain",
		why:  "hand-off-bound: thousands of ~650-byte messages with almost no compute between them, so mailbox hand-off and per-message overhead dominate at 2 ranks",
		prepare: func(seed int64, short bool) *instance {
			cfg := dsmc.Default2D(16)
			cfg.NMols, cfg.Steps = 1024, 1500
			if short {
				cfg.NMols, cfg.Steps = 128, 20
			}
			cfg.Mover = dsmc.MoverLight
			return dsmcInstance(cfg, seed)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// checksumWithin checks that every rank reports the same checksum and that
// it is within rel of want.
func checksumWithin(want, rel float64) func([]any) error {
	return func(answers []any) error {
		for r, a := range answers {
			got := a.(float64)
			if !(math.Abs(got-want) <= rel*math.Abs(want)) {
				return fmt.Errorf("rank %d checksum %.17g, reference %.17g", r, got, want)
			}
		}
		return nil
	}
}

// dsmcInstance holds a DSMC run to the sequential reference bit for bit:
// the ranks' final molecule records, put in id order, must equal the
// reference population exactly. (dsmc.Run's scalar checksum is a float sum
// whose order follows the rank layout, so it cannot be compared bitwise;
// RunKeepMols is the same run returning the records.)
func dsmcInstance(cfg dsmc.Config, seed int64) *instance {
	cfg.Seed = seed
	return &instance{
		body: func(p *comm.Proc) any { return dsmc.RunKeepMols(p, cfg) },
		reference: func() func([]any) error {
			want, _ := dsmc.Reference(cfg)
			return func(answers []any) error {
				var all []float64
				for _, a := range answers {
					all = append(all, a.([]float64)...)
				}
				got := dsmc.SortByID(all)
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
