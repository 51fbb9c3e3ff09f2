package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sized is the multi-process reference run: 600 molecules on a 24×24 grid
// for 8 steps, remapped by RCB every 4, all molecules starting in the left
// half. Every rank count prints wantChecksum.
var sized = []string{"-nx", "24", "-ny", "24", "-mols", "600", "-steps", "8", "-part", "rcb", "-remap", "4", "-slab", "0.5"}

const wantChecksum = "  state checksum      : 13676.474737912"

// reserveAddrs returns n distinct free loopback addresses. The listeners
// are closed again before return, so the ranks can bind them.
func reserveAddrs(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return strings.Join(addrs, ",")
}

// rankRun is one in-process rank's outcome.
type rankRun struct {
	code           int
	stdout, stderr string
}

// runRanks runs n ranks of "dsmc -rank R -addrs ... args..." concurrently,
// each as its own run call, over reserved loopback addresses.
func runRanks(t *testing.T, n int, args ...string) []rankRun {
	t.Helper()
	addrs := reserveAddrs(t, n)
	out := make([]rankRun, n)
	var wg sync.WaitGroup
	for r := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stdout, stderr bytes.Buffer
			code := run(slices.Concat([]string{"-rank", strconv.Itoa(r), "-addrs", addrs, "-timeout", "20s"}, args), &stdout, &stderr)
			out[r] = rankRun{code, stdout.String(), stderr.String()}
		}()
	}
	wg.Wait()
	return out
}

// checksumLine returns the checksum line of a report.
func checksumLine(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "state checksum") {
			return line
		}
	}
	t.Fatalf("no checksum line in:\n%s", report)
	return ""
}

// wantExit0 fails the test unless every rank exited 0.
func wantExit0(t *testing.T, runs []rankRun) {
	t.Helper()
	for r, o := range runs {
		if o.code != 0 {
			t.Fatalf("rank %d of %d: exit %d, stderr:\n%s", r, len(runs), o.code, o.stderr)
		}
	}
}

// TestMultiProcessChecksum: three ranks over loopback TCP and the
// in-process run on three simulated processors print the same checksum
// line, the reference one. Only rank 0 prints it; every rank prints its own
// clock and counts.
func TestMultiProcessChecksum(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	clean := runRanks(t, 3, sized...)
	wantExit0(t, clean)
	if got := checksumLine(t, clean[0].stdout); got != wantChecksum {
		t.Errorf("3 processes: %q, want %q", got, wantChecksum)
	}
	for r, o := range clean {
		if r > 0 && strings.Contains(o.stdout, "checksum") {
			t.Errorf("rank %d printed a checksum line:\n%s", r, o.stdout)
		}
		if !strings.Contains(o.stdout, fmt.Sprintf("  rank %d ", r)) {
			t.Errorf("rank %d printed no line of its own:\n%s", r, o.stdout)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(slices.Concat([]string{"-procs", "3"}, sized), &stdout, &stderr); code != 0 {
		t.Fatalf("-procs 3: exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := checksumLine(t, stdout.String()); got != wantChecksum {
		t.Errorf("-procs 3: %q, want %q", got, wantChecksum)
	}
}

// TestRankKillResumesElastic: three ranks checkpoint every 2 steps until
// the fault plan kills rank 1 at its 100th send. Every rank exits 3, the
// victim saying the plan killed it and its peers that a peer failed, and
// ckpt-00000002 stays sealed. Two ranks resumed from the latest sealed
// checkpoint (an elastic 3 → 2 restore) print the fault-free checksum, bit
// for bit.
func TestRankKillResumesElastic(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	dir := t.TempDir()
	killed := runRanks(t, 3, slices.Concat(sized, []string{"-ckpt-dir", dir, "-ckpt-every", "2",
		"-fault-plan", "seed=7,kill=1@100"})...)
	for r, k := range killed {
		why := "a peer rank failed"
		if r == 1 {
			why = "the fault plan killed it"
		}
		if want := fmt.Sprintf("dsmc: rank %d aborted: %s;", r, why); k.code != 3 || !strings.HasPrefix(k.stderr, want) {
			t.Errorf("killed run, rank %d: exit %d, want 3 and %q; stderr:\n%s", r, k.code, want, k.stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-00000002", "MANIFEST.ckpt")); err != nil {
		t.Fatalf("ckpt-00000002 is not sealed: %v", err)
	}

	resumed := runRanks(t, 2, slices.Concat(sized, []string{"-ckpt-dir", dir, "-resume", "latest"})...)
	wantExit0(t, resumed)
	if got := checksumLine(t, resumed[0].stdout); got != wantChecksum {
		t.Errorf("3 → 2 resume: %q, want %q", got, wantChecksum)
	}
}

// TestRankRefusesBadResume: a rank asked to resume a checkpoint it cannot
// continue — another application's, another grid size's, a missing one, or
// "latest" under a -ckpt-dir with no sealed checkpoint — refuses it as bad
// input (exit 2, one dsmc: line) before it listens, so its absent peer is
// never dialled.
func TestRankRefusesBadResume(t *testing.T) {
	dir := t.TempDir()
	manifest := func(name, app string, n int64) string {
		return sealedCheckpoint(filepath.Join(dir, name), app, n)
	}
	rank := []string{"-rank", "0", "-addrs", reserveAddrs(t, 2), "-timeout", "1s", "-nx", "24", "-ny", "24", "-steps", "4"}
	for _, r := range []refusal{
		{[]string{"-resume", manifest("charmm", "charmm", 576)}, `was written by "charmm"`},
		{[]string{"-resume", manifest("small-dsmc", "dsmc", 144)}, "holds 144 elements, want 576"},
		{[]string{"-resume", filepath.Join(dir, "missing")}, "open checkpoint"},
		{[]string{"-ckpt-dir", t.TempDir(), "-resume", "latest"}, "no sealed checkpoint under"},
	} {
		wantRefused(t, refusal{slices.Concat(rank, r.args), r.want})
	}
}

// TestCrashExits4: a rank that crashes (-crash-step) ends its process with
// exit status 4, one "dsmc: rank R crashed:" line and then the stack, both
// in-process and as rank 1 of two processes, whose peer exits 3.
func TestCrashExits4(t *testing.T) {
	app := []string{"-nx", "8", "-ny", "8", "-mols", "200", "-steps", "4", "-crash-step", "2", "-crash-rank", "1"}
	var stdout, stderr bytes.Buffer
	wantCrash(t, "-procs 2", run(slices.Concat([]string{"-procs", "2"}, app), &stdout, &stderr), stderr.String())
	if testing.Short() {
		return
	}
	ranks := runRanks(t, 2, app...)
	wantCrash(t, "rank 1 of two processes", ranks[1].code, ranks[1].stderr)
	if ranks[0].code != 3 {
		t.Errorf("rank 0 of two processes: exit %d, want 3; stderr:\n%s", ranks[0].code, ranks[0].stderr)
	}
}

// wantCrash demands the report of rank 1's injected crash at step 2.
func wantCrash(t *testing.T, label string, code int, stderr string) {
	t.Helper()
	const line = "dsmc: rank 1 crashed: dsmc: injected crash on rank 1 at step 2\n"
	if code != 4 || !strings.HasPrefix(stderr, line) || strings.Count(stderr, " crashed: ") != 1 {
		t.Errorf("%s: exit %d, want 4 and one line %q first; stderr:\n%s", label, code, line, stderr)
	}
	if !strings.Contains(stderr, "goroutine ") {
		t.Errorf("%s: no stack after the crash line:\n%s", label, stderr)
	}
}
