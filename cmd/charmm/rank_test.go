package main

import (
	"bytes"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

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

// positionChecksum returns the checksum line of a report, or "".
func positionChecksum(report string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "position checksum") {
			return line
		}
	}
	return ""
}

// TestRankRoleEndToEnd runs charmm as two ranks over loopback TCP, each its
// own run call, once clean and once under the fault plan the CI soak uses
// (duplicated and reordered frames). Both ranks exit 0, and rank 0 prints
// the checksum line of the in-process run on two simulated processors.
func TestRankRoleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	md := []string{"-atoms", "300", "-steps", "6", "-nbevery", "3"}
	var stdout, stderr bytes.Buffer
	if code := run(slices.Concat([]string{"-procs", "2"}, md), &stdout, &stderr); code != 0 {
		t.Fatalf("-procs 2: exit %d, stderr:\n%s", code, stderr.String())
	}
	want := positionChecksum(stdout.String())
	for _, plan := range [][]string{nil, {"-fault-plan", "seed=7,dup=0.3,reorder=0.35"}} {
		ranks := runTwoRanks(t, slices.Concat(md, plan))
		for r, o := range ranks {
			if o.code != 0 {
				t.Errorf("%q: rank %d exit %d, stderr:\n%s", plan, r, o.code, o.stderr)
			}
		}
		if got := positionChecksum(ranks[0].stdout); want == "" || got != want {
			t.Errorf("%q: rank 0 printed %q, -procs 2 %q", plan, got, want)
		}
	}
}

// rankRun is one in-process rank's outcome.
type rankRun struct {
	code           int
	stdout, stderr string
}

// runTwoRanks runs ranks 0 and 1 of "charmm -rank R -addrs ... args..."
// concurrently, each as its own run call, over reserved loopback addresses.
func runTwoRanks(t *testing.T, args []string) [2]rankRun {
	t.Helper()
	addrs := reserveAddrs(t, 2)
	var out [2]rankRun
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

// TestCrashExits4: a rank that crashes (-crash-step) ends its process with
// exit status 4, one "charmm: rank R crashed:" line and then the stack, both
// in-process (hand-coded and compiled) and as rank 1 of two processes, whose
// peer exits 3.
func TestCrashExits4(t *testing.T) {
	md := []string{"-atoms", "300", "-steps", "6", "-nbevery", "3", "-crash-step", "2", "-crash-rank", "1"}
	for _, variant := range [][]string{{"-procs", "2"}, {"-procs", "2", "-compiled"}} {
		var stdout, stderr bytes.Buffer
		wantCrash(t, strings.Join(variant, " "), run(slices.Concat(variant, md), &stdout, &stderr), stderr.String())
	}
	if testing.Short() {
		return
	}
	ranks := runTwoRanks(t, md)
	wantCrash(t, "rank 1 of two processes", ranks[1].code, ranks[1].stderr)
	if ranks[0].code != 3 {
		t.Errorf("rank 0 of two processes: exit %d, want 3; stderr:\n%s", ranks[0].code, ranks[0].stderr)
	}
}

// wantCrash demands the report of rank 1's injected crash at step 2.
func wantCrash(t *testing.T, label string, code int, stderr string) {
	t.Helper()
	const line = "charmm: rank 1 crashed: charmm: injected crash on rank 1 at step 2\n"
	if code != 4 || !strings.HasPrefix(stderr, line) || strings.Count(stderr, " crashed: ") != 1 {
		t.Errorf("%s: exit %d, want 4 and one line %q first; stderr:\n%s", label, code, line, stderr)
	}
	if !strings.Contains(stderr, "goroutine ") {
		t.Errorf("%s: no stack after the crash line:\n%s", label, stderr)
	}
}
