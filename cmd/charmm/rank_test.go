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
		addrs := reserveAddrs(t, 2)
		var stdout, stderr [2]bytes.Buffer
		var codes [2]int
		var wg sync.WaitGroup
		for r := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[r] = run(slices.Concat([]string{"-rank", strconv.Itoa(r), "-addrs", addrs, "-timeout", "20s"}, md, plan),
					&stdout[r], &stderr[r])
			}()
		}
		wg.Wait()
		for r, code := range codes {
			if code != 0 {
				t.Errorf("%q: rank %d exit %d, stderr:\n%s", plan, r, code, stderr[r].String())
			}
		}
		if got := positionChecksum(stdout[0].String()); want == "" || got != want {
			t.Errorf("%q: rank 0 printed %q, -procs 2 %q", plan, got, want)
		}
	}
}
