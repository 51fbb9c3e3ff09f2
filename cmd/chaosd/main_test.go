package main

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestRankRoleEndToEnd runs the Figure 1 loop as two chaosd rank processes'
// worth of run calls over loopback TCP, once clean and once under the fault
// plan the CI soak uses (duplicated and reordered frames). Both ranks exit
// 0 and rank 0 reports the result equal to the sequential loop.
func TestRankRoleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	for _, plan := range []string{"", "seed=7,dup=0.3,reorder=0.35"} {
		addrs := reserveAddrs(t, 2)
		var stdout, stderr [2]bytes.Buffer
		var codes [2]int
		var wg sync.WaitGroup
		for r := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[r] = run([]string{"rank", "-rank", strconv.Itoa(r), "-addrs", addrs, "-timeout", "20s",
					"-app", "fig1", "-elems", "1500", "-iters", "5000", "-fault-plan", plan}, &stdout[r], &stderr[r])
			}()
		}
		wg.Wait()
		for r, code := range codes {
			if code != 0 {
				t.Errorf("plan %q: rank %d exit %d, stderr:\n%s", plan, r, code, stderr[r].String())
			}
		}
		if !strings.Contains(stdout[0].String(), "chaosd: OK\n") {
			t.Errorf("plan %q: rank 0 printed no OK line:\n%s", plan, stdout[0].String())
		}
	}
}

// TestBadInputExitsWithOneLine: input no run can honour is refused before
// any listener starts — exit status 2, one "chaosd:" line followed by the
// usage on stderr, and nothing on stdout.
func TestBadInputExitsWithOneLine(t *testing.T) {
	two := "127.0.0.1:1,127.0.0.1:2"
	for _, args := range [][]string{
		{},
		{"nosuch"},
		{"rank", "-rank", "0"},
		{"rank", "-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:1"},
		{"rank", "-rank", "0", "-addrs", "127.0.0.1:1, ,127.0.0.1:2"},
		{"rank", "-rank", "2", "-addrs", two},
		{"rank", "-rank", "-1", "-addrs", two},
		{"rank", "-rank", "0", "-addrs", two, "-crash-rank", "2"},
		{"rank", "-rank", "0", "-addrs", two, "-fault-plan", "seed=x"},
		{"rank", "-rank", "0", "-addrs", two, "-app", "nosuch"},
		{"rank", "-rank", "0", "-addrs", two, "stray"},
		{"oneshot", "-workers", "0"},
		{"oneshot", "-workers", "-3"},
	} {
		var stdout, stderr bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- run(args, &stdout, &stderr) }()
		select {
		case code := <-done:
			if code != 2 {
				t.Errorf("%q: exit %d, want 2", args, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%q: still running after 30s", args)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "chaosd: ") || strings.Contains(rest, "chaosd: ") {
			t.Errorf("%q: want exactly one chaosd: line, stderr:\n%s", args, stderr.String())
		}
		if !strings.Contains(strings.ToLower(rest), "usage") {
			t.Errorf("%q: no usage after the complaint:\n%s", args, rest)
		}
		if stdout.Len() > 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
	}
}

// TestBadFlagExits2: a flag the role does not declare is the flag
// package's error plus usage, exit status 2.
func TestBadFlagExits2(t *testing.T) {
	for _, args := range [][]string{
		{"rank", "-ranks-per-worker", "2"},
		{"oneshot", "-workers", "two"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2, stderr:\n%s", args, code, stderr.String())
		}
	}
}
