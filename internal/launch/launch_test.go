package launch

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/charmm"
	"repro/internal/comm"
)

var update = flag.Bool("update", false, "rewrite testdata/rank_table.golden")

// tickClock is a scripted measured clock: every reading is one millisecond
// after the last, or, with step 0, the same as every other.
type tickClock struct {
	step float64
	n    atomic.Int64
}

func (c *tickClock) Now() float64 { return float64(c.n.Add(1)) * c.step }

// TestRankTableGolden pins the per-rank table -measure prints after a small
// CHARMM run, under a scripted clock: on 1 rank a ticking one, so that every
// measured figure is a fixed count of ticks; on 2 ranks a frozen one, since
// two ranks reading one ticking clock interleave their readings by the
// host's scheduling. The 2-rank table still pins each rank's virtual phase
// times, messages and bytes.
func TestRankTableGolden(t *testing.T) {
	var got []byte
	for _, c := range []struct {
		procs string
		step  float64
	}{{"1", 1e-3}, {"2", 0}} {
		cfg := charmm.ConfigForAtoms(240)
		cfg.Steps, cfg.NBEvery = 4, 2
		l := New("charmm", io.Discard)
		if _, ok := l.Parse([]string{"-procs", c.procs, "-measure"}); !ok {
			t.Fatal("flags refused")
		}
		l.measureOpts.Clock = &tickClock{step: c.step}
		rep, _ := l.Run(func(p *comm.Proc) { charmm.Run(p, cfg) })
		var out bytes.Buffer
		l.Report(&out, rep, "", "", 12)
		_, table, ok := strings.Cut(out.String(), "  per rank")
		if !ok {
			t.Fatalf("-procs %s: no per-rank table in:\n%s", c.procs, out.String())
		}
		got = fmt.Appendf(got, "-procs %s, clock step %v s:\n  per rank%s", c.procs, c.step, table)
	}
	const golden = "testdata/rank_table.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("per-rank tables differ from %s:\n%s", golden, got)
	}
}

// TestBadInputExitsWithOneLine: multi-process flags no run can honour are
// refused by Parse, before any rank listens or dials — exit status 2, one
// "dsmc:" line followed by the usage on stderr.
func TestBadInputExitsWithOneLine(t *testing.T) {
	two := "127.0.0.1:1,127.0.0.1:2"
	for _, args := range [][]string{
		{"-rank", "0", "-addrs", ""},
		{"-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:1"},
		{"-rank", "0", "-addrs", "127.0.0.1:1, ,127.0.0.1:2"},
		{"-addrs", two},
		{"-rank", "2", "-addrs", two},
		{"-rank", "-1", "-addrs", two},
		{"-rank", "0", "-addrs", two, "-crash-rank", "2"},
		{"-rank", "0", "-addrs", two, "-procs", "2"},
		{"-rank", "0", "-addrs", two, "-measure"},
		{"-rank", "0", "-addrs", two, "-trace"},
		{"-rank", "0", "-addrs", two, "stray"},
		{"-rank", "1"},
		{"-timeout", "5s"},
		{"-fault-plan", "seed=7,dup=0.3"},
	} {
		var stderr bytes.Buffer
		l := New("dsmc", &stderr)
		if code, ok := l.Parse(args); ok || code != 2 {
			t.Errorf("%q: Parse = %d, %v; want 2, false", args, code, ok)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "dsmc: ") || strings.Contains(rest, "dsmc: ") {
			t.Errorf("%q: want exactly one dsmc: line, stderr:\n%s", args, stderr.String())
		}
		if !strings.Contains(rest, "-addrs") {
			t.Errorf("%q: no usage after the complaint:\n%s", args, rest)
		}
	}
}

// TestBadFlagExits2: a flag the launcher does not declare, or a value its
// flag cannot parse, is the flag package's error plus usage, exit status 2.
func TestBadFlagExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks-per-worker", "2"},
		{"-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-fault-plan", "seed=x"},
		{"-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-timeout", "soon"},
	} {
		var stderr bytes.Buffer
		if code, ok := New("dsmc", &stderr).Parse(args); ok || code != 2 {
			t.Errorf("%q: Parse = %d, %v; want 2, false; stderr:\n%s", args, code, ok, stderr.String())
		}
	}
}
