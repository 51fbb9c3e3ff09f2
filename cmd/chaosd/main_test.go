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
	"time"

	"repro/internal/checkpoint"
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

// rankRun is one in-process chaosd rank's outcome.
type rankRun struct {
	code           int
	stdout, stderr string
}

// runRanks runs n ranks of "chaosd rank args..." concurrently over
// reserved loopback addresses and returns each rank's outcome.
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
			code := run(slices.Concat([]string{"rank", "-rank", strconv.Itoa(r), "-addrs", addrs, "-timeout", "20s"}, args),
				&stdout, &stderr)
			out[r] = rankRun{code, stdout.String(), stderr.String()}
		}()
	}
	wg.Wait()
	return out
}

// checksumLine returns rank 0's checksum line.
func checksumLine(t *testing.T, runs []rankRun) string {
	t.Helper()
	for _, line := range strings.Split(runs[0].stdout, "\n") {
		if strings.Contains(line, "checksum") {
			return line
		}
	}
	t.Fatalf("rank 0 printed no checksum line:\n%s", runs[0].stdout)
	return ""
}

// TestRankKillResumesElastic: three dsmc ranks checkpoint every 2 steps
// until the fault plan kills rank 1 at its 100th send. Every rank exits 3,
// the victim saying the plan killed it and its peers that a peer failed,
// and ckpt-00000002 stays sealed. Two ranks resumed from the latest sealed
// checkpoint (an elastic 3 → 2 restore) print the checksum of a fault-free
// 3-rank run, bit for bit.
func TestRankKillResumesElastic(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh test")
	}
	dir := t.TempDir()
	app := []string{"-app", "dsmc", "-elems", "600", "-steps", "8"}

	killed := runRanks(t, 3, slices.Concat(app, []string{"-ckpt-dir", dir, "-ckpt-every", "2",
		"-fault-plan", "seed=7,kill=1@100"})...)
	for r, k := range killed {
		why := "a peer rank failed"
		if r == 1 {
			why = "the fault plan killed it"
		}
		if want := fmt.Sprintf("chaosd: rank %d aborted: %s;", r, why); k.code != 3 || !strings.HasPrefix(k.stderr, want) {
			t.Errorf("killed run, rank %d: exit %d, want 3 and %q; stderr:\n%s", r, k.code, want, k.stderr)
		}
	}
	if _, err := checkpoint.Open(filepath.Join(dir, "ckpt-00000002")); err != nil {
		t.Fatalf("ckpt-00000002 is not sealed: %v", err)
	}

	resumed := runRanks(t, 2, slices.Concat(app, []string{"-ckpt-dir", dir, "-resume", "latest"})...)
	clean := runRanks(t, 3, app...)
	for _, runs := range [][]rankRun{resumed, clean} {
		for r, o := range runs {
			if o.code != 0 {
				t.Fatalf("rank %d of %d: exit %d, stderr:\n%s", r, len(runs), o.code, o.stderr)
			}
		}
	}
	if got, want := checksumLine(t, resumed), checksumLine(t, clean); got != want {
		t.Errorf("3 → 2 resume: %q, fault-free 3 ranks: %q", got, want)
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
	} {
		wantRefused(t, args)
	}
}

// TestRankRefusesBadResume: a rank's -resume must name a sealed checkpoint
// the same app wrote over the index space it will restore — charmm's atoms,
// dsmc's 576 cells — or the rank exits as on any other bad input, before it
// listens, instead of panicking with a goroutine dump.
func TestRankRefusesBadResume(t *testing.T) {
	dir := t.TempDir()
	manifest := func(name, app string, n int64) string {
		d := filepath.Join(dir, name)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.WriteManifest(d, &checkpoint.Manifest{App: app, NRanks: 1, N: n, ShardCRCs: []uint32{0}}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	charmm, dsmc := manifest("charmm", "charmm", 450), manifest("dsmc", "dsmc", 576)
	rank := []string{"rank", "-rank", "0", "-addrs", "127.0.0.1:1,127.0.0.1:2", "-steps", "4"}
	for _, args := range [][]string{
		{"-app", "dsmc", "-elems", "600", "-resume", charmm},
		{"-app", "charmm", "-elems", "450", "-resume", dsmc},
		{"-app", "charmm", "-elems", "300", "-resume", charmm},
		{"-app", "dsmc", "-elems", "600", "-resume", manifest("small-dsmc", "dsmc", 144)},
		{"-app", "charmm", "-elems", "450", "-resume", filepath.Join(dir, "missing")},
		{"-app", "charmm", "-elems", "450", "-ckpt-dir", filepath.Join(dir, "empty"), "-resume", "latest"},
	} {
		wantRefused(t, slices.Concat(rank, args))
	}
}

// wantRefused runs chaosd with args and wants exit status 2, exactly one
// "chaosd:" line followed by the usage on stderr, and nothing on stdout.
func wantRefused(t *testing.T, args []string) {
	t.Helper()
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

// TestBadFlagExits2: a flag the role does not declare is the flag
// package's error plus usage, exit status 2.
func TestBadFlagExits2(t *testing.T) {
	for _, args := range [][]string{
		{"rank", "-ranks-per-worker", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2, stderr:\n%s", args, code, stderr.String())
		}
	}
}
