package charmm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
)

// TestKernelSetupSlabMatchesSequential holds the slab search of kernelSetup
// to the sequential list: on every rank the local CSR is rows [lo, hi) of
// buildNBListSeq, slice for slice, for random sizes that include fewer atoms
// than ranks (an empty slab). The benchmark's oracle for the kernel is the
// kernel's own 1-rank run, so a slab bug that is the same at every rank
// count would pass there; it cannot pass here.
func TestKernelSetupSlabMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{1, 2, 3, 5}
	for len(sizes) < 32 {
		sizes = append(sizes, 6+rng.Intn(900))
	}
	for ci, n := range sizes {
		cfg := KernelConfig{NAtoms: n, Seed: int64(100 + ci)}
		mdCfg := DefaultConfig().scaled(n)
		mdCfg.Seed = cfg.Seed
		wantPos := genInitState(mdCfg).pos
		wantPtr, wantJnb := buildNBListSeq(wantPos, n, mdCfg)
		for _, nprocs := range []int{1, 2, 3, 4} {
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				pos, ptr, jnb := kernelSetup(p, cfg)
				if p.Clock() != 0 {
					t.Errorf("n=%d on %d ranks: kernelSetup charged %v virtual seconds", n, nprocs, p.Clock())
				}
				lo, hi := partition.BlockRange(p.Rank(), n, nprocs)
				if !slices.Equal(pos, wantPos) {
					t.Errorf("n=%d on %d ranks: rank %d generated different positions", n, nprocs, p.Rank())
				}
				if len(ptr) != hi-lo+1 || ptr[0] != 0 {
					t.Fatalf("n=%d on %d ranks: rank %d ptr has %d entries starting at %d, want %d from 0", n, nprocs, p.Rank(), len(ptr), ptr[0], hi-lo+1)
				}
				for i := lo; i < hi; i++ {
					got := jnb[ptr[i-lo]:ptr[i-lo+1]]
					want := wantJnb[wantPtr[i]:wantPtr[i+1]]
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d on %d ranks: row %d of rank %d is %v, sequential list has %v", n, nprocs, i, p.Rank(), got, want)
					}
				}
				if int(ptr[hi-lo]) != len(jnb) {
					t.Errorf("n=%d on %d ranks: rank %d list holds %d partners past its last row", n, nprocs, p.Rank(), len(jnb)-int(ptr[hi-lo]))
				}
			})
		}
	}
}

// TestFirstBuildEstimate checks the first build of a list is sized from its
// sample closely enough that the 1/8 headroom absorbs the error: the list
// is built without append ever growing it, and without reserving more than
// half as much again, under BLOCK slabs whose mean rows differ by 3x.
func TestFirstBuildEstimate(t *testing.T) {
	for _, n := range []int{700, 3000} {
		cfg := ConfigForAtoms(n)
		pos := genInitState(cfg).pos
		for _, nprocs := range []int{1, 2, 4} {
			for r := 0; r < nprocs; r++ {
				var nb nbSearch
				nb.grid.build(pos, nil, n, cfg.box, cfg.Cutoff)
				lo, hi := partition.BlockRange(r, n, nprocs)
				est := nb.estimate(pos, nil, lo, hi, cfg)
				_, jnb := nb.searchRows(pos, nil, lo, hi, cfg)
				if cap(jnb) != est+est/8 {
					t.Errorf("n=%d slab %d/%d: list of %d grew past its estimate %d (cap %d)", n, r, nprocs, len(jnb), est, cap(jnb))
				}
				if 2*cap(jnb) > 3*len(jnb) {
					t.Errorf("n=%d slab %d/%d: %d reserved for a list of %d", n, r, nprocs, cap(jnb), len(jnb))
				}
			}
		}
	}
}

// TestKernelPinned pins both kernels to the values this configuration
// produced before the slab search and the storage reuse went in: checksum
// and virtual makespan bit for bit, message and byte counts exactly. The
// hand and compiled kernels share a checksum at every rank count; what
// separates them is the generated code's modeled bookkeeping.
func TestKernelPinned(t *testing.T) {
	small := smallKernelConfig()
	dense := KernelConfig{NAtoms: 1300, Iters: 9, RemapEvery: 2, Seed: 11}
	pins := []struct {
		cfg                      KernelConfig
		nprocs                   int
		checksum, hand, compiled uint64
		msgs, bytes              int64
	}{
		{small, 1, 0x4074fd2695c7eb84, 0x3fe46059dceb2807, 0x3fe4cbc05d52c173, 0, 0},
		{small, 2, 0x4074fd2695c7eb85, 0x3fded90d21fc7ef9, 0x3fdf4977c33015d7, 238, 321204},
		{small, 3, 0x4074fd2695c7eb86, 0x3fd76e4989b6cd34, 0x3fd7bbc69525405a, 826, 482776},
		{small, 4, 0x4074fd2695c7eb84, 0x3fd41adba37f4bb2, 0x3fd4562e5fe4c226, 1317, 615392},
		{dense, 1, 0x4074f86be113a443, 0x4002568547d2fd6d, 0x4002e6d6f9a16c26, 0, 0},
		{dense, 2, 0x4074f86be113a43c, 0x3ff84fc3e298661d, 0x3ff8e3d5a7e7bb18, 444, 1147232},
		{dense, 3, 0x4074f86be113a437, 0x3ff1d594469e74e5, 0x3ff23a3789592f8e, 1566, 1837936},
		{dense, 4, 0x4074f86be113a431, 0x3feda410558da629, 0x3fee3c07ad9e5e5d, 2441, 2091088},
	}
	for _, pin := range pins {
		for _, k := range []struct {
			name     string
			run      func(p *comm.Proc, cfg KernelConfig) *KernelResult
			makespan uint64
		}{{"hand", RunKernelHand, pin.hand}, {"compiled", RunKernelCompiled, pin.compiled}} {
			label := fmt.Sprintf("%s kernel, %d atoms on %d ranks", k.name, pin.cfg.NAtoms, pin.nprocs)
			var checksum float64
			rep := comm.Run(pin.nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				if r := k.run(p, pin.cfg); p.Rank() == 0 {
					checksum = r.Checksum
				}
			})
			if got := math.Float64bits(checksum); got != pin.checksum {
				t.Errorf("%s: checksum %#x, pinned %#x", label, got, pin.checksum)
			}
			if got := math.Float64bits(rep.MaxClock()); got != k.makespan {
				t.Errorf("%s: virtual makespan %#x (%v), pinned %#x", label, got, rep.MaxClock(), k.makespan)
			}
			if rep.TotalMsgsSent() != pin.msgs || rep.TotalBytesSent() != pin.bytes {
				t.Errorf("%s: %d messages / %d bytes, pinned %d / %d", label, rep.TotalMsgsSent(), rep.TotalBytesSent(), pin.msgs, pin.bytes)
			}
		}
	}
}

// BenchmarkKernelRemapCycle times one adaptive cycle of the compiled Table 6
// kernel at the benchmark's size — partition, Redistribute, re-inspect and
// one execution — on 1 and 2 ranks, after two warm cycles have sized the
// recycled storage. B/op covers all ranks: what is left is the new
// distribution (translation table, globals) and the remap's wire buffers.
func BenchmarkKernelRemapCycle(b *testing.B) {
	cfg := KernelConfig{NAtoms: 8000, Seed: 1994}
	for _, nprocs := range []int{1, 2} {
		b.Run(fmt.Sprintf("ranks=%d", nprocs), func(b *testing.B) {
			b.ReportAllocs()
			comm.Run(nprocs, costmodel.IPSC860(), func(p *comm.Proc) {
				k := newCompiledKernel(p, cfg)
				cycle := func() {
					k.adapt()
					k.loop.Execute()
				}
				cycle()
				cycle()
				p.Barrier()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		})
	}
}

// TestKernelPositionsMatchInitState: the kernel draws charmm-md's initial
// positions, bit for bit, in one allocation and without the velocities and
// bonds genInitState also builds.
func TestKernelPositionsMatchInitState(t *testing.T) {
	for _, n := range []int{1, 2, 300, 8000, 14026} {
		for _, seed := range []int64{1994, 7} {
			mdCfg := DefaultConfig().scaled(n)
			mdCfg.Seed = seed
			want := genInitState(mdCfg).pos
			comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
				pos, _, _ := kernelSetup(p, KernelConfig{NAtoms: n, Seed: seed})
				if len(pos) != len(want) {
					t.Fatalf("n=%d seed %d: %d coordinates, want %d", n, seed, len(pos), len(want))
				}
				for i := range want {
					if math.Float64bits(pos[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d seed %d: coordinate %d is %v, genInitState's is %v", n, seed, i, pos[i], want[i])
					}
				}
			})
			if allocs := testing.AllocsPerRun(3, func() { initPositions(mdCfg) }); allocs > 3 {
				t.Errorf("n=%d seed %d: drawing the positions took %.0f allocations, want the positions and the generator's", n, seed, allocs)
			}
		}
	}
}
