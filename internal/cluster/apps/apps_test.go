package apps

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// run executes the spec on n in-memory ranks and returns rank 0's result.
func run(t *testing.T, spec Spec, n int) Result {
	t.Helper()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec invalid: %v", err)
	}
	var res Result
	comm.Run(n, costmodel.IPSC860(), func(p *comm.Proc) {
		r := Run(p, spec)
		if p.Rank() == 0 {
			res = r
		}
	})
	return res
}

func TestNormalizeDefaults(t *testing.T) {
	var s Spec
	s.Normalize()
	if s.App != "fig1" || s.Elems != 4000 || s.Iters != 12000 || s.Steps != 12 {
		t.Fatalf("defaults %+v", s)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []Spec{
		{App: "nonesuch", Elems: 10, Iters: 10, Steps: 1},
		{App: "fig1", Elems: 10, Iters: 10, CheckpointEvery: 2, CheckpointDir: "d"},
		{App: "fig1", Elems: 10, Iters: 10, ResumeFrom: "d"},
		{App: "dsmc", Elems: 10, Steps: 0},
		{App: "dsmc", Elems: 10, Steps: 4, CheckpointEvery: 2}, // cadence without dir
		{App: "charmm", Elems: 0, Steps: 4},
		{App: "charmm", Elems: 10, Steps: 4, CrashStep: 2, CrashRank: -1},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad spec", s)
		}
	}
}

func TestFig1MatchesSequentialLoop(t *testing.T) {
	res := run(t, Spec{App: "fig1", Elems: 500, Iters: 1500}, 4)
	if res.MaxErr > 1e-9 {
		t.Fatalf("fig1 max error %v vs sequential loop", res.MaxErr)
	}
}

func TestFig1ChecksumRankInvariant(t *testing.T) {
	spec := Spec{App: "fig1", Elems: 500, Iters: 1500}
	a := run(t, spec, 1).Checksum
	for _, n := range []int{2, 3, 5} {
		b := run(t, spec, n).Checksum
		if math.Abs(a-b) > 1e-9*math.Abs(a) {
			t.Fatalf("fig1 checksum %v on 1 rank, %v on %d ranks", a, b, n)
		}
	}
}

func TestDsmcMatchesDirectRun(t *testing.T) {
	spec := Spec{App: "dsmc", Elems: 500, Steps: 6}
	got := run(t, spec, 3).Checksum

	// The configuration Run builds for a dsmc Spec, written out by hand.
	cfg := dsmc.Default2D(24)
	cfg.NMols = 500
	cfg.Steps = 6
	cfg.RemapEvery = 4
	cfg.Partitioner = "rcb"
	cfg.InitSlabFrac = 0.5
	var want float64
	comm.Run(3, costmodel.IPSC860(), func(p *comm.Proc) {
		r := dsmc.Run(p, cfg)
		if p.Rank() == 0 {
			want = r.Checksum
		}
	})
	if got != want {
		t.Fatalf("apps.Run dsmc checksum %v, direct dsmc.Run %v", got, want)
	}
}

func TestBadSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an invalid spec")
		}
	}()
	comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
		Run(p, Spec{App: "nonesuch"})
	})
}
