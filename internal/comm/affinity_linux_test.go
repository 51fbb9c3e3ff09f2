package comm

import (
	"runtime"
	"syscall"
	"testing"

	"repro/internal/costmodel"
)

// maskOf is the mask holding exactly cpus.
func maskOf(cpus ...int) (s cpuSet) {
	for _, c := range cpus {
		s[c/64] |= 1 << (c % 64)
	}
	return s
}

// A pinned rank's thread runs bound to the rank's CPU, and gets its
// previous mask back when the run ends.
func TestBindRestoresThreadMask(t *testing.T) {
	const n = 2
	if runtime.GOMAXPROCS(0) < n || len(allowedCPUs) < n {
		t.Skipf("binding %d ranks needs %d CPUs (GOMAXPROCS %d, %d allowed)", n, n, runtime.GOMAXPROCS(0), len(allowedCPUs))
	}
	tids := make([]int, n)
	during := make([]cpuSet, n)
	RunMeasured(n, costmodel.Uniform(1e-9), func(p *Proc) {
		tids[p.Rank()] = syscall.Gettid()
		during[p.Rank()], _ = threadAffinity(0)
		p.Barrier()
	})
	for r, tid := range tids {
		if want := maskOf(allowedCPUs[r]); during[r] != want {
			t.Errorf("rank %d ran on mask %x, want CPU %d alone", r, during[r], allowedCPUs[r])
		}
		after, ok := threadAffinity(tid)
		if !ok {
			t.Fatalf("rank %d's thread %d is gone", r, tid)
		}
		if want := maskOf(allowedCPUs...); after != want {
			t.Errorf("rank %d's thread has mask %x after the run, want the process mask %x", r, after, want)
		}
	}
}

// A pinned run with more ranks than allowed CPUs binds no rank.
func TestBindSkippedWhenRanksOutnumberCPUs(t *testing.T) {
	n := len(allowedCPUs) + 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	tr := NewMemTransport(n)
	masks := make([]cpuSet, n)
	spins := make([]bool, n)
	RunMeasuredTransport(n, costmodel.Uniform(1e-9), tr, MeasureOpts{}, func(p *Proc) {
		masks[p.Rank()], _ = threadAffinity(0)
		spins[p.Rank()] = tr.spin == memSpin
		p.Barrier()
	})
	want := maskOf(allowedCPUs...)
	for r := range masks {
		if !spins[r] {
			t.Fatalf("rank %d was not pinned: the run must be pinned for this test to mean anything", r)
		}
		if masks[r] != want {
			t.Errorf("rank %d ran on mask %x, want the process mask %x", r, masks[r], want)
		}
	}
}
