package charmm

import (
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestMeasuredModeParity: running the full CHARMM simulation under
// comm.RunMeasured must leave every virtual-time observable bit-identical
// to comm.Run — clocks, per-rank stats, message counts, checksums — while
// additionally producing real phase timers keyed like the modeled ones.
func TestMeasuredModeParity(t *testing.T) {
	cfg := smallConfig()
	m := costmodel.IPSC860()
	for _, nprocs := range []int{1, 2, 4} {
		want := make([]*ProcResult, nprocs)
		modeled := comm.Run(nprocs, m, func(p *comm.Proc) {
			want[p.Rank()] = Run(p, cfg)
		})
		got := make([]*ProcResult, nprocs)
		measured := comm.RunMeasured(nprocs, m, func(p *comm.Proc) {
			got[p.Rank()] = Run(p, cfg)
		})

		for r := 0; r < nprocs; r++ {
			if measured.Clocks[r] != modeled.Clocks[r] {
				t.Errorf("nprocs=%d rank %d: clock %v != %v", nprocs, r, measured.Clocks[r], modeled.Clocks[r])
			}
			if measured.Stats[r] != modeled.Stats[r] {
				t.Errorf("nprocs=%d rank %d: stats %+v != %+v", nprocs, r, measured.Stats[r], modeled.Stats[r])
			}
			if got[r].Checksum != want[r].Checksum {
				t.Errorf("nprocs=%d rank %d: checksum %v != %v", nprocs, r, got[r].Checksum, want[r].Checksum)
			}
			if got[r].NBEntries != want[r].NBEntries {
				t.Errorf("nprocs=%d rank %d: nb entries %v != %v", nprocs, r, got[r].NBEntries, want[r].NBEntries)
			}
			for name, v := range want[r].Phases {
				if got[r].Phases[name] != v {
					t.Errorf("nprocs=%d rank %d: virtual phase %q %v != %v", nprocs, r, name, got[r].Phases[name], v)
				}
			}
		}
		if measured.TotalMsgsSent() != modeled.TotalMsgsSent() {
			t.Errorf("nprocs=%d: msgs %d != %d", nprocs, measured.TotalMsgsSent(), modeled.TotalMsgsSent())
		}
		if measured.TotalBytesSent() != modeled.TotalBytesSent() {
			t.Errorf("nprocs=%d: bytes %d != %d", nprocs, measured.TotalBytesSent(), modeled.TotalBytesSent())
		}

		// The measured side must cover the driver's phase keys for real.
		for _, phase := range []string{PhaseExecutor, PhaseNBList, PhasePartition} {
			if measured.MeasuredPhaseMax(phase) <= 0 {
				t.Errorf("nprocs=%d: no measured time for phase %q", nprocs, phase)
			}
		}
		if measured.MaxMeasuredWall() <= 0 {
			t.Errorf("nprocs=%d: no measured wall time", nprocs)
		}
	}
}

// TestMeasuredModeMultiplexedParity repeats the parity check with all ranks
// forced onto one worker slot, the regime where the barrier-aware scheduler
// actually multiplexes.
func TestMeasuredModeMultiplexedParity(t *testing.T) {
	cfg := smallConfig()
	m := costmodel.IPSC860()
	const nprocs = 4
	var wantSum float64
	modeled := comm.Run(nprocs, m, func(p *comm.Proc) {
		res := Run(p, cfg)
		if p.Rank() == 0 {
			wantSum = res.Checksum
		}
	})
	var gotSum float64
	measured := comm.RunMeasuredTransport(nprocs, m, comm.NewMemTransport(nprocs), comm.MeasureOpts{Workers: 1}, func(p *comm.Proc) {
		res := Run(p, cfg)
		if p.Rank() == 0 {
			gotSum = res.Checksum
		}
	})
	if measured.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", measured.Workers)
	}
	if gotSum != wantSum {
		t.Errorf("checksum %v != %v", gotSum, wantSum)
	}
	for r := 0; r < nprocs; r++ {
		if measured.Clocks[r] != modeled.Clocks[r] {
			t.Errorf("rank %d: clock %v != %v", r, measured.Clocks[r], modeled.Clocks[r])
		}
	}
}

// tickClock is a scripted measured-mode clock shared by all ranks: every
// reading advances time by exactly one second.
type tickClock struct{ t atomic.Int64 }

func (c *tickClock) Now() float64 { return float64(c.t.Add(1)) }

// TestKernelCompiledPhasesWithinWall holds the measured ledger of the
// compiled kernel to one owner per phase key: the host's PhaseTimer charges
// consecutive intervals of the rank body, so on every rank the measured
// phases can add up to at most the rank's wall. A second owner charging a
// key inside one of those intervals would count its time twice. The setup
// before the first inspection — the list search, SetByGlobal, SetCSR — is a
// phase of its own, not time outside every phase; the hand kernel is held
// to the same.
func TestKernelCompiledPhasesWithinWall(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func(*comm.Proc, KernelConfig) *KernelResult
	}{{"compiled", RunKernelCompiled}, {"hand", RunKernelHand}} {
		rep := comm.RunMeasuredTransport(2, costmodel.IPSC860(), comm.NewMemTransport(2), comm.MeasureOpts{Clock: &tickClock{}}, func(p *comm.Proc) {
			k.run(p, smallKernelConfig())
		})
		for r, m := range rep.Measured {
			sum := 0.0
			for _, v := range m.Phases {
				sum += v
			}
			if sum <= 0 || sum > m.Wall {
				t.Errorf("%s, rank %d: measured phases sum to %v, wall %v: want 0 < sum <= wall (%v)", k.name, r, sum, m.Wall, m.Phases)
			}
			if m.Phases["setup"] <= 0 {
				t.Errorf("%s, rank %d: no measured setup phase (%v)", k.name, r, m.Phases)
			}
		}
	}
}
