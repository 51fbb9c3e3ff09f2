package commtest

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestWatchdogNamesPendingReceives: a deadlocked run is poisoned at the
// deadline and reported with every rank's pending (from, tag), on each
// transport that can be poisoned.
func TestWatchdogNamesPendingReceives(t *testing.T) {
	for _, k := range []Transport{Mem, Fault, Delay} {
		tr, err := k.New(3)
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(50*time.Millisecond, tr, 0, nil, 3, costmodel.Uniform(1e-9), deadlock)
		want := "rank 0 (from 1, tag 7), rank 1 (from 0, tag 8), rank 2 none"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: hung run reported %v, want the pending receives %q", k, err, want)
		}
	}
	// A runner column's bare mesh is poisoned all the same.
	_, err := run(50*time.Millisecond, comm.NewMemTransport(3), 0, &comm.MeasureOpts{}, 3, costmodel.Uniform(1e-9), deadlock)
	if want := "not logged on a bare mesh"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("measured: hung run reported %v, want %q", err, want)
	}
}

func deadlock(p *comm.Proc) {
	if p.Rank() < 2 {
		p.RecvF64View(1-p.Rank(), 7+p.Rank())
	}
}

// TestRunPassesThroughHealthyRuns: a run that completes returns its report,
// and a rank's own panic is not mistaken for a hang.
func TestRunPassesThroughHealthyRuns(t *testing.T) {
	rep, err := Try(Mem, 2, costmodel.Uniform(1e-9), ping)
	if err != nil || rep.TotalMsgsSent() != 1 || rep.InFlight != nil {
		t.Errorf("report counts %d messages, %v in flight (err %v), want 1 and none counted", rep.TotalMsgsSent(), rep.InFlight, err)
	}
	for _, k := range Runners {
		rep, err := Try(k, 2, costmodel.Uniform(1e-9), ping)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		workers := map[Transport]int{Measured: min(2, runtime.GOMAXPROCS(0)), Multiplexed: 1}[k]
		if rep.Measured == nil || rep.Workers != workers || rep.TotalMsgsSent() != 1 {
			t.Errorf("%v: %d workers, measured %v, %d messages; want %d workers, a measured run, 1 message", k, rep.Workers, rep.Measured != nil, rep.TotalMsgsSent(), workers)
		}
	}
	defer func() {
		if e := recover(); e == nil || !strings.Contains(e.(string), "boom") {
			t.Errorf("a rank's panic surfaced as %v, want it re-raised", e)
		}
	}()
	tr, _ := Mem.New(1)
	run(time.Minute, tr, 0, nil, 1, costmodel.Uniform(1e-9), func(*comm.Proc) { panic("boom") })
}

func ping(p *comm.Proc) {
	if p.Rank() == 0 {
		p.PackF64(1)[0] = 1
		p.SendPacked(1, 3)
	} else {
		p.RecvF64View(0, 3)
		p.ReleaseView()
	}
}

// TestInFlightCountsWaitsForTheWire: on a wire with latency, a receive
// begun at once waits for the frame; one begun after the frame arrived
// does not.
func TestInFlightCountsWaitsForTheWire(t *testing.T) {
	const latency = 20 * time.Millisecond
	for _, late := range []bool{false, true} {
		tr := comm.NewDelayTransport(comm.NewMemTransport(2), latency)
		out, err := run(time.Minute, tr, latency, nil, 2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
			if late && p.Rank() == 1 {
				time.Sleep(3 * latency)
			}
			ping(p)
		})
		if want := map[bool]int{false: 1, true: 0}[late]; err != nil || out.InFlight[3] != want {
			t.Errorf("receive begun late=%v: %v in flight (err %v), want %d of tag 3", late, out.InFlight, err, want)
		}
	}
}

// TestMemoRunsEachKeyOnce: concurrent callers of one key share one run.
func TestMemoRunsEachKeyOnce(t *testing.T) {
	var memo Memo[int, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := memo.Get(i%2, func() (int, error) { return int(calls.Add(1)), nil })
			if err != nil || v < 1 || v > 2 {
				t.Errorf("key %d: %d, %v", i%2, v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 2 {
		t.Errorf("%d runs for two keys, want 2", calls.Load())
	}
}
