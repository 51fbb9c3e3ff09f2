package cluster

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/apps"
)

func TestSubmitRejectsBadSpecs(t *testing.T) {
	tc := newTestCluster(t, Options{}, 0)
	for _, body := range []string{
		`{`,
		`{"app":"nonesuch"}`,
		`{"app":"fig1","ckpt_every":3}`,
		`{"app":"dsmc","ranks_per_worker":1000}`,
		`{"app":"fig1","fault_plan":"seed=x"}`,
	} {
		resp, err := http.Post(tc.srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
		if ae.Error == "" {
			t.Errorf("submit %q: no error message in reply", body)
		}
	}
}

func TestStatusUnknownJob(t *testing.T) {
	tc := newTestCluster(t, Options{}, 0)
	resp, err := http.Get(tc.srv.URL + "/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestJobQueuedWithoutWorkers(t *testing.T) {
	tc := newTestCluster(t, Options{}, 0)
	st := tc.submit(JobSpec{Spec: apps.Spec{App: "fig1", Elems: 500, Iters: 1500}})
	time.Sleep(200 * time.Millisecond)
	var got JobStatus
	tc.get("/jobs/"+st.ID, &got)
	if got.State != JobQueued {
		t.Fatalf("job with no workers is %s, want queued", got.State)
	}
	var cs ClusterStatus
	tc.get("/cluster", &cs)
	if cs.Queued != 1 || len(cs.Workers) != 0 {
		t.Fatalf("cluster queued=%d workers=%d, want 1 and 0", cs.Queued, len(cs.Workers))
	}
}

func TestFig1JobRunsToDone(t *testing.T) {
	tc := newTestCluster(t, Options{RanksPerWorker: 2}, 2)
	tc.waitWorkers(2)
	st := tc.submit(JobSpec{Spec: apps.Spec{App: "fig1", Elems: 500, Iters: 1500}, MinWorkers: 2})
	final := tc.waitState(st.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job %s: %s (%s)", final.ID, final.State, final.Error)
	}
	if final.Ranks != 4 || len(final.Workers) != 2 {
		t.Fatalf("ranks=%d workers=%v, want 4 ranks on 2 workers", final.Ranks, final.Workers)
	}
	if !final.HasChecksum {
		t.Fatal("done job has no checksum")
	}
	// The checksum must match the same spec run in-process over the memory
	// transport — the cluster deployment may not change the answer.
	want := referenceChecksum(t, apps.Spec{App: "fig1", Elems: 500, Iters: 1500}, 2)
	if math.Abs(final.Checksum-want) > 1e-9*math.Abs(want) {
		t.Fatalf("cluster checksum %v, in-process reference %v", final.Checksum, want)
	}
	var list []JobStatus
	tc.get("/jobs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job list %v, want just %s", list, st.ID)
	}
}

func TestStreamReplaysAndCloses(t *testing.T) {
	tc := newTestCluster(t, Options{RanksPerWorker: 1}, 1)
	tc.waitWorkers(1)
	st := tc.submit(JobSpec{Spec: apps.Spec{App: "fig1", Elems: 400, Iters: 1200}})
	final := tc.waitState(st.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	// The stream replays the full journal of a finished job and then ends.
	resp, err := http.Get(tc.srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("stream replayed %d events, want >= 3 (submitted, scheduled, done)", len(events))
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[0].Type != "submitted" || events[len(events)-1].Type != "done" {
		t.Fatalf("stream %q ... %q, want submitted ... done", events[0].Type, events[len(events)-1].Type)
	}
	last := events[len(events)-1]
	if !last.HasChecksum || math.Abs(last.Checksum-final.Checksum) > 1e-12 {
		t.Fatalf("done event checksum %v, status checksum %v", last.Checksum, final.Checksum)
	}
}

func TestClusterEndpointTracksMembership(t *testing.T) {
	tc := newTestCluster(t, Options{}, 2)
	tc.waitWorkers(2)
	var cs ClusterStatus
	tc.get("/cluster", &cs)
	if cs.Workers[0].ID != "w0" || cs.Workers[1].ID != "w1" {
		t.Fatalf("workers %v, want sorted w0,w1", cs.Workers)
	}
	gen := cs.Generation
	// A worker going silent is expired and bumps the generation.
	tc.workers[1].Close()
	tc.wsrvs[1].Close()
	tc.waitWorkers(1)
	tc.get("/cluster", &cs)
	if cs.Workers[0].ID != "w0" || cs.Generation <= gen {
		t.Fatalf("after worker loss: workers %v generation %d (was %d)", cs.Workers, cs.Generation, gen)
	}
}

// TestConcurrencyCapHoldsSecondJob pins the cap with a stalling fake
// worker: it accepts /prepare and /start but never reports done, so the
// first job runs forever and the second must stay queued behind the cap of
// one — no timing assumptions.
func TestConcurrencyCapHoldsSecondJob(t *testing.T) {
	tc := newTestCluster(t, Options{MaxConcurrent: 1, RanksPerWorker: 1}, 0)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /prepare", func(w http.ResponseWriter, r *http.Request) {
		var req prepareRequest
		json.NewDecoder(r.Body).Decode(&req)
		rep := prepareReply{Addrs: make([]string, len(req.Ranks))}
		for i := range rep.Addrs {
			rep.Addrs[i] = "127.0.0.1:1"
		}
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("POST /start", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) // accepted; the "ranks" never finish
	})
	mux.HandleFunc("POST /abort", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	// Register the fake worker by hand (it has no heartbeat loop, but the
	// short test finishes well inside the TTL).
	b, _ := json.Marshal(registerRequest{ID: "stall", URL: srv.URL})
	resp, err := http.Post(tc.srv.URL+"/workers/register", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tc.waitWorkers(1)

	a := tc.submit(JobSpec{Spec: apps.Spec{App: "fig1", Elems: 300, Iters: 900}})
	jb := tc.submit(JobSpec{Spec: apps.Spec{App: "fig1", Elems: 300, Iters: 900}})
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sa JobStatus
		tc.get("/jobs/"+a.ID, &sa)
		if sa.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job a never started (state %s)", sa.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// a is running and can never finish; b must be queued, and stay queued.
	time.Sleep(200 * time.Millisecond)
	var sb JobStatus
	tc.get("/jobs/"+jb.ID, &sb)
	if sb.State != JobQueued {
		t.Fatalf("second job is %s while the first holds the only slot", sb.State)
	}
	var cs ClusterStatus
	tc.get("/cluster", &cs)
	if cs.Running != 1 || cs.Queued != 1 {
		t.Fatalf("cluster running=%d queued=%d, want 1 and 1", cs.Running, cs.Queued)
	}
}
