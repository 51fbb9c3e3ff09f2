package fault_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// ringWorkload drives deterministic all-pairs traffic: every rank sends
// `rounds` messages of varying size to every other rank and receives the
// same from each peer.
func ringWorkload(rounds int) func(p *comm.Proc) {
	return func(p *comm.Proc) {
		n := p.Size()
		for i := 0; i < rounds; i++ {
			for d := 1; d < n; d++ {
				to := (p.Rank() + d) % n
				buf := p.PackF64(1 + (p.Rank()+i)%5)
				for k := range buf {
					buf[k] = float64(p.Rank()*10_000 + i*100 + k)
				}
				p.SendPacked(to, 3)
			}
			for d := 1; d < n; d++ {
				from := (p.Rank() - d + n) % n
				got := p.RecvF64View(from, 3)
				for k, v := range got {
					if want := float64(from*10_000 + i*100 + k); v != want {
						panic("payload corrupted under faults")
					}
				}
				p.ReleaseView()
			}
		}
	}
}

// runWithPlan runs the ring workload over a fault-wrapped mem transport and
// returns the fired fault trace.
func runWithPlan(t *testing.T, planStr string, n, rounds int) []fault.Event {
	t.Helper()
	pl, err := fault.Parse(planStr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", planStr, err)
	}
	ft := fault.Wrap(comm.NewMemTransport(n), n, pl)
	comm.RunTransport(n, costmodel.Uniform(1e-9), ft, ringWorkload(rounds))
	return ft.Trace()
}

// TestTraceReproducible is the acceptance criterion: the same seed and
// FaultPlan reproduce an identical fault trace, run after run, while a
// different seed produces a different one.
func TestTraceReproducible(t *testing.T) {
	const plan = "seed=99,drop=0.08,retry=8:1e-6,dup=0.2,reorder=0.25,delay=0.15:2e-6"
	a := runWithPlan(t, plan, 4, 30)
	b := runWithPlan(t, plan, 4, 30)
	if len(a) == 0 {
		t.Fatal("plan fired no faults; the reproducibility check is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := runWithPlan(t, "seed=100,drop=0.08,retry=8:1e-6,dup=0.2,reorder=0.25,delay=0.15:2e-6", 4, 30)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// expectAbort runs body and asserts the run dies with the peer-failure
// cascade RunTransport reports for a killed/cut rank.
func expectAbort(t *testing.T, ft *fault.Transport, n int, body func(p *comm.Proc)) {
	t.Helper()
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("run completed; want a peer-failure abort")
		}
		msg, ok := e.(string)
		if !ok || !strings.Contains(msg, "aborted by a peer failure") {
			t.Fatalf("run died with %v; want a peer-failure abort", e)
		}
	}()
	comm.RunTransport(n, costmodel.Uniform(1e-9), ft, body)
}

// TestKillAbortsRun checks a scheduled rank kill degrades into the
// PeerFailure path — every rank wakes, nobody hangs — and shows up in the
// trace.
func TestKillAbortsRun(t *testing.T) {
	pl, err := fault.Parse("seed=5,kill=1@10")
	if err != nil {
		t.Fatal(err)
	}
	ft := fault.Wrap(comm.NewMemTransport(3), 3, pl)
	expectAbort(t, ft, 3, ringWorkload(50))
	for _, e := range ft.Trace() {
		if e.Action == "kill" && e.From == 1 {
			return
		}
	}
	t.Fatalf("no kill event for rank 1 in trace %v", ft.Trace())
}

// TestRetryBudgetCut checks that exhausting the drop-retry budget cuts the
// link and surfaces PeerFailure instead of hanging either endpoint.
func TestRetryBudgetCut(t *testing.T) {
	pl, err := fault.Parse("seed=3,drop=1,retry=2:1e-6")
	if err != nil {
		t.Fatal(err)
	}
	ft := fault.Wrap(comm.NewMemTransport(2), 2, pl)
	expectAbort(t, ft, 2, func(p *comm.Proc) {
		if p.Rank() == 0 {
			p.PackF64(1)[0] = 42
			p.SendPacked(1, 1)
		} else {
			p.RecvF64View(0, 1)
		}
	})
	tr := ft.Trace()
	if len(tr) != 1 || tr[0].Action != "cut" || !strings.HasPrefix(tr[0].String(), "0->1 ") {
		t.Fatalf("trace = %v; want exactly one cut on link 0->1", tr)
	}
}

// TestDelayAdvancesVirtualTime checks injected latency lands in the virtual
// clock, not wall time: a certain delay on the only message pushes the
// receiver's clock past the fault-free arrival.
func TestDelayAdvancesVirtualTime(t *testing.T) {
	run := func(planStr string) float64 {
		pl, err := fault.Parse(planStr)
		if err != nil {
			t.Fatal(err)
		}
		ft := fault.Wrap(comm.NewMemTransport(2), 2, pl)
		var clock float64
		m := &costmodel.Machine{Alpha: 1, Beta: 0.5, Flop: 1, Mem: 1, Name: "fault-test"}
		comm.RunTransport(2, m, ft, func(p *comm.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 1, make([]byte, 10))
			} else {
				p.Recv(0, 1)
				clock = p.Clock()
			}
		})
		return clock
	}
	clean := run("seed=1")
	delayed := run("seed=1,delay=1:0.5")
	if clean != 6 { // Alpha 1 + Beta 0.5 * 10 bytes
		t.Fatalf("fault-free receiver clock = %v, want 6", clean)
	}
	if delayed <= clean || delayed > clean+0.5 {
		t.Fatalf("delayed receiver clock = %v, want in (6, 6.5]", delayed)
	}
}

// TestParseStringRoundTrip checks the textual plan form survives
// Parse → String → Parse, and that malformed plans are rejected.
func TestParseStringRoundTrip(t *testing.T) {
	const s = "seed=42,drop=0.01,retry=3:2e-05,dup=0.02,reorder=0.05,delay=0.1:1e-05,kill=1@200,killv=2@0.5"
	pl, err := fault.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if got := pl.String(); got != s {
		t.Errorf("String() = %q, want %q", got, s)
	}
	pl2, err := fault.Parse(pl.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", pl.String(), err)
	}
	if pl2.Seed != pl.Seed || pl2.Link != pl.Link || len(pl2.Kills) != len(pl.Kills) {
		t.Errorf("round-trip changed the plan: %+v vs %+v", pl2, pl)
	}
	for _, bad := range []string{
		"drop", "drop=1.5", "drop=-0.1", "retry=3", "delay=0.5", "kill=1", "seed=x", "bogus=1",
		// Values no plan can represent, or that String would not render.
		"drop=NaN", "dup=nan", "reorder=-Inf", "delay=NaN:1", "delay=0.5:-1", "delay=0.1:Inf",
		"retry=-2:NaN", "retry=-2:1", "retry=2:NaN", "retry=2:-1e-6", "retry=2:+Inf",
		"kill=-1@5", "kill=1@0", "kill=1@-3", "killv=-1@0.5", "killv=1@0", "killv=1@NaN", "killv=1@Inf",
	} {
		if _, err := fault.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a malformed plan", bad)
		}
	}
	if pl, err := fault.Parse("  "); err != nil || pl.Seed != 1 {
		t.Errorf("empty plan: got %+v, %v; want benign default seed 1", pl, err)
	}
}

// FuzzParse holds Parse and String to being inverses: every plan Parse
// accepts must render to a string that parses back to an equal plan.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"seed=42,drop=0.01,retry=3:2e-05,dup=0.02,reorder=0.05,delay=0.1:1e-05,kill=1@200,killv=2@0.5",
		"", "seed=7,kill=1@250", "retry=0:1e-5", "delay=0:2", "drop=-0", "drop=NaN",
		"delay=0.5:-1", "retry=-2:NaN", "kill=-1@5", "kill=1@0", "killv=0@1e-300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := fault.Parse(s)
		if err != nil {
			return
		}
		back, err := fault.Parse(pl.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q is rejected: %v", s, pl.String(), err)
		}
		if !reflect.DeepEqual(back, pl) {
			t.Fatalf("Parse(%q) = %#v, but String %q parses to %#v", s, *pl, pl.String(), *back)
		}
	})
}

// TestDupAndReorderPreserveByteStream is the wire-versus-contract check in
// miniature: with only wire-order faults (no virtual-time perturbation) the
// application sees a byte stream identical to a fault-free run — the
// workload's internal assertions verify payloads, and the trace proves the
// faults actually fired.
func TestDupAndReorderPreserveByteStream(t *testing.T) {
	trace := runWithPlan(t, "seed=11,dup=0.3,reorder=0.3", 3, 40)
	var dups, reorders int
	for _, e := range trace {
		switch e.Action {
		case "dup":
			dups++
		case "reorder":
			reorders++
		}
	}
	if dups == 0 || reorders == 0 {
		t.Fatalf("plan fired dups=%d reorders=%d; want both > 0", dups, reorders)
	}
}
