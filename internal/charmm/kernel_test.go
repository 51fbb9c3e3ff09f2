package charmm

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/loopir"
)

func smallKernelConfig() KernelConfig {
	return KernelConfig{NAtoms: 500, Iters: 8, RemapEvery: 4, Seed: 3}
}

func TestKernelHandMatchesCompiled(t *testing.T) {
	cfg := smallKernelConfig()
	for _, nprocs := range []int{1, 2, 4} {
		hand := make([]*KernelResult, nprocs)
		compiled := make([]*KernelResult, nprocs)
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			hand[p.Rank()] = RunKernelHand(p, cfg)
		})
		comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
			compiled[p.Rank()] = RunKernelCompiled(p, cfg)
		})
		h, c := hand[0], compiled[0]
		if math.Abs(h.Checksum-c.Checksum) > 1e-9*math.Abs(h.Checksum) {
			t.Errorf("nprocs=%d checksum hand %v vs compiled %v", nprocs, h.Checksum, c.Checksum)
		}
		if h.Checksum == 0 {
			t.Errorf("nprocs=%d zero checksum: kernel did nothing", nprocs)
		}
	}
}

func TestKernelCompiledNearHandPerformance(t *testing.T) {
	// Table 6: the compiler-generated code should be within a few percent
	// of the hand-coded version.
	cfg := smallKernelConfig()
	cfg.NAtoms = 1500
	cfg.Iters = 12
	total := func(f func(p *comm.Proc, cfg KernelConfig) *KernelResult) float64 {
		rep := comm.Run(4, costmodel.IPSC860(), func(p *comm.Proc) {
			f(p, cfg)
		})
		return rep.MaxClock()
	}
	hand := total(RunKernelHand)
	compiled := total(RunKernelCompiled)
	if compiled < hand {
		t.Logf("compiled (%.4fs) faster than hand (%.4fs) — acceptable", compiled, hand)
	}
	if compiled > hand*1.10 {
		t.Errorf("compiled kernel %.4fs more than 10%% slower than hand %.4fs", compiled, hand)
	}
}

func TestKernelPhaseBreakdown(t *testing.T) {
	cfg := smallKernelConfig()
	results := make([]*KernelResult, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
		results[p.Rank()] = RunKernelHand(p, cfg)
	})
	r := results[0]
	if r.Partition <= 0 || r.Remap <= 0 || r.Inspector <= 0 || r.Executor <= 0 {
		t.Errorf("phase breakdown incomplete: %+v", r)
	}
	sum := r.Partition + r.Remap + r.Inspector + r.Executor
	if math.Abs(sum-r.Total) > 0.02*r.Total {
		t.Errorf("phases sum to %v but total is %v", sum, r.Total)
	}
}

// BenchmarkKernelExecutor puts Table 6's executor column on the host clock:
// one execution of the kernel at the benchmark's size, 1 rank, schedule
// warm, as ns per pair — hand-coded (kernelRow called per row), compiled
// from the same row body (what RunKernelCompiled runs: the difference to
// hand is loopir's per-row overhead), and compiled from the per-pair closure
// loopir lifts (what the kernel ran before the row form). The compiled
// variants also report their ratio to hand when hand ran first. Reported,
// not asserted: a wall-clock bound would make tier-1 flaky.
func BenchmarkKernelExecutor(b *testing.B) {
	cfg := KernelConfig{NAtoms: 8000, Seed: 1994}
	// bench runs exec b.N times after a warm-up and returns ns per pair.
	bench := func(b *testing.B, pairs int, exec func()) float64 {
		exec()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec()
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*pairs)
		b.ReportMetric(ns, "ns/pair")
		return ns
	}
	hand := 0.0
	b.Run("hand", func(b *testing.B) {
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			k := newHandKernel(p, cfg)
			k.inspect()
			hand = bench(b, len(k.jnb), k.execute)
		})
	})
	// compiled benchmarks a compiled loop over pairs references.
	compiled := func(b *testing.B, loop *loopir.SumLoop, pairs int) {
		loop.Inspect()
		if ns := bench(b, pairs, loop.Execute); hand > 0 {
			b.ReportMetric(ns/hand, "x-hand")
		}
	}
	b.Run("compiled-rows", func(b *testing.B) {
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			k := newCompiledKernel(p, cfg)
			_, vals := k.ind.CSR()
			compiled(b, k.loop, len(vals))
		})
	})
	// The same declarations as newCompiledKernel, the loop from a pair body.
	b.Run("compiled-pairs", func(b *testing.B) {
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
			gpos, ptr, vals := kernelSetup(p, cfg)
			prog := loopir.NewProgram(p)
			dec := prog.Decomposition(cfg.NAtoms)
			x, dx := dec.AlignReal(3), dec.AlignReal(3)
			x.SetByGlobal(func(g int32, c []float64) { copy(c, gpos[3*g:3*g+3]) })
			ind := dec.AlignIndCSR()
			ind.SetCSR(ptr, vals)
			compiled(b, prog.NewSumLoop(ind, x, dx, kernelFlopsPerPair, func(xi, xj, fi, fj []float64) {
				for c := range xi {
					fj[c] += xj[c] - xi[c]
					fi[c] += xi[c] - xj[c]
				}
			}), len(vals))
		})
	})
}
