// Package cluster is the multi-tenant CHAOS cluster service: a coordinator
// that accepts jobs over an HTTP/JSON API and a pool of workers that each
// host many virtual ranks of the SPMD runtime over the TCP transport.
// Concurrent jobs share the worker pool; membership is elastic — a worker
// joining or leaving (or being killed by a fault plan acting as chaos
// monkey) triggers checkpoint → elastic P→Q restore → remap on the
// affected jobs, so jobs finish with correct checksums despite churn.
//
// The serving layer deliberately lives outside the deterministic runtime:
// wall-clock heartbeats, probes, and HTTP below; virtual-time SPMD ranks
// above. The only contract between them is apps.Run plus the checkpoint
// directory a restarted attempt resumes from.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm/fault"
)

// Options configures a Coordinator. Zero values take the stated defaults.
type Options struct {
	// MaxConcurrent caps simultaneously running jobs (default 2).
	MaxConcurrent int
	// DataDir is the base directory for per-job checkpoint state (default:
	// a fresh temp directory).
	DataDir string
	// RanksPerWorker is the default virtual-rank count each worker hosts
	// per job (default 2).
	RanksPerWorker int
	// MaxRestarts is the default failure-restart budget per job
	// (default 3).
	MaxRestarts int
	// HeartbeatTTL expires workers that stop heartbeating (default 5s).
	HeartbeatTTL time.Duration
	// ProbeInterval paces the scheduler's liveness sweep (default 1s).
	ProbeInterval time.Duration
	// Rebalance aborts-and-restores a running checkpointed job when new
	// workers join, so it spreads onto the larger pool (default on; set
	// DisableRebalance to turn off).
	DisableRebalance bool
	// Timeout bounds coordinator→worker HTTP calls (default 10s).
	Timeout time.Duration
}

func (o *Options) fill() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.RanksPerWorker <= 0 {
		o.RanksPerWorker = 2
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
}

// job is the coordinator's record of one submitted job. All fields are
// guarded by the coordinator mutex.
type job struct {
	id       string
	spec     JobSpec
	state    JobState
	attempt  int
	restarts int
	restores int
	ranks    int
	workers  []WorkerStatus // current attempt's pool, sorted by id
	reports  map[string]doneReport
	checksum float64
	hasSum   bool
	errMsg   string
	ckptDir  string
	schedGen int64 // membership generation the attempt was laid out at
	j        *journal
}

// Coordinator serves the cluster API and drives the job lifecycle.
type Coordinator struct {
	opts    Options
	mux     *http.ServeMux
	queue   *Queue
	members *Membership
	client  *http.Client

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewCoordinator builds a coordinator and starts its scheduler loop. Call
// Close to stop it.
func NewCoordinator(opts Options) *Coordinator {
	opts.fill()
	if opts.DataDir == "" {
		dir, err := os.MkdirTemp("", "chaosd-")
		if err != nil {
			panic(fmt.Sprintf("cluster: temp data dir: %v", err))
		}
		opts.DataDir = dir
	}
	c := &Coordinator{
		opts:    opts,
		queue:   NewQueue(opts.MaxConcurrent),
		members: NewMembership(opts.HeartbeatTTL),
		client:  &http.Client{Timeout: opts.Timeout},
		jobs:    map[string]*job{},
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /jobs", c.handleList)
	c.mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /jobs/{id}/stream", c.handleStream)
	c.mux.HandleFunc("GET /cluster", c.handleCluster)
	c.mux.HandleFunc("POST /workers/register", c.handleRegister)
	c.mux.HandleFunc("POST /workers/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /internal/done", c.handleDone)
	c.wg.Add(1)
	go c.scheduler()
	return c
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the scheduler. In-flight worker attempts are left to finish;
// their reports are dropped.
func (c *Coordinator) Close() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// kick wakes the scheduler without blocking.
func (c *Coordinator) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) // chaosvet:ignore — best-effort reply body
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeJobSpec reads a submitted job spec from the first 1 MiB of body.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	err := json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(&spec)
	return spec, err
}

// handleSubmit is POST /jobs.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if err := validateSpec(&spec, c.opts.RanksPerWorker, c.opts.MaxRestarts); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("job-%04d", c.nextID)
	jb := &job{id: id, spec: spec, state: JobQueued, attempt: -1, j: &journal{}}
	if spec.CheckpointEvery > 0 {
		jb.ckptDir = filepath.Join(c.opts.DataDir, id)
		jb.spec.CheckpointDir = jb.ckptDir
	}
	c.jobs[id] = jb
	c.order = append(c.order, id)
	jb.j.append(Event{Job: id, Type: "submitted", State: JobQueued})
	st := c.statusLocked(jb)
	c.mu.Unlock()
	c.queue.Submit(id)
	c.kick()
	writeJSON(w, http.StatusAccepted, st)
}

// handleList is GET /jobs.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]JobStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /jobs/{id}.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jb, ok := c.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		st = c.statusLocked(jb)
	}
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream is GET /jobs/{id}/stream: NDJSON, replay + follow.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jb, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	jb.j.serveStream(r.Context(), w)
}

// handleCluster is GET /cluster.
func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	njobs := len(c.jobs)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, ClusterStatus{
		Generation: c.members.Generation(),
		Workers:    c.members.Live(),
		Queued:     c.queue.Depth(),
		Running:    c.queue.Running(),
		Jobs:       njobs,
	})
}

// handleRegister is POST /workers/register.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.ID == "" || req.URL == "" {
		writeErr(w, http.StatusBadRequest, "register needs id and url")
		return
	}
	gen, changed := c.members.Register(req.ID, req.URL)
	if changed {
		c.kick() // a new worker may unblock queued jobs or enable a rebalance
	}
	writeJSON(w, http.StatusOK, registerReply{Generation: gen})
}

// handleHeartbeat is POST /workers/heartbeat. An unknown worker gets 404
// so it re-registers (it may have been expired during a long GC pause or a
// coordinator restart).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.ID == "" {
		writeErr(w, http.StatusBadRequest, "heartbeat needs id")
		return
	}
	if !c.members.Touch(req.ID) {
		writeErr(w, http.StatusNotFound, "unknown worker %q", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleDone is POST /internal/done: one worker's verdict on its hosted
// ranks of one attempt.
func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	var rep doneReport
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&rep); err != nil {
		writeErr(w, http.StatusBadRequest, "bad report: %v", err)
		return
	}
	c.mu.Lock()
	jb, ok := c.jobs[rep.Job]
	if !ok || jb.state != JobRunning || jb.attempt != rep.Attempt {
		c.mu.Unlock() // stale report from an aborted attempt
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	if rep.Err != "" {
		jb.j.append(Event{Job: jb.id, Type: "report", State: jb.state, Attempt: jb.attempt,
			Msg: fmt.Sprintf("worker %s: %s", rep.Worker, rep.Err)})
		c.mu.Unlock()
		c.failAttempt(jb.id, rep.Attempt, fmt.Sprintf("worker %s reported: %s", rep.Worker, rep.Err))
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	jb.reports[rep.Worker] = rep
	jb.j.append(Event{Job: jb.id, Type: "report", State: jb.state, Attempt: jb.attempt,
		Msg: fmt.Sprintf("worker %s ok", rep.Worker), Checksum: rep.Checksum, HasChecksum: true})
	complete := len(jb.reports) == len(jb.workers)
	if complete {
		c.finishLocked(jb)
	}
	c.mu.Unlock()
	if complete {
		c.queue.Release()
		c.kick()
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// finishLocked finalizes a fully-reported job: cross-check the per-worker
// checksums and mark done (or failed on divergence).
func (c *Coordinator) finishLocked(jb *job) {
	canon := jb.reports[jb.workers[0].ID]
	for _, ws := range jb.workers[1:] {
		rep := jb.reports[ws.ID]
		if diff := rep.Checksum - canon.Checksum; diff > 1e-9*abs(canon.Checksum) || -diff > 1e-9*abs(canon.Checksum) {
			jb.state = JobFailed
			jb.errMsg = fmt.Sprintf("checksum divergence: worker %s reports %v, worker %s reports %v",
				jb.workers[0].ID, canon.Checksum, ws.ID, rep.Checksum)
			jb.j.append(Event{Job: jb.id, Type: "failed", State: JobFailed, Attempt: jb.attempt, Msg: jb.errMsg})
			jb.j.close()
			return
		}
	}
	jb.state = JobDone
	jb.checksum = canon.Checksum
	jb.hasSum = true
	jb.j.append(Event{Job: jb.id, Type: "done", State: JobDone, Attempt: jb.attempt,
		Ranks: jb.ranks, Checksum: jb.checksum, HasChecksum: true})
	jb.j.close()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// statusLocked builds the client-facing view. Caller holds c.mu.
func (c *Coordinator) statusLocked(jb *job) JobStatus {
	st := JobStatus{
		ID: jb.id, State: jb.state, Spec: jb.spec,
		Attempt: jb.attempt, Restarts: jb.restarts, Restores: jb.restores,
		Ranks: jb.ranks, Checksum: jb.checksum, HasChecksum: jb.hasSum, Error: jb.errMsg,
	}
	for _, ws := range jb.workers {
		st.Workers = append(st.Workers, ws.ID)
	}
	return st
}

// scheduler is the single goroutine that starts jobs, sweeps liveness, and
// triggers rebalances. All worker HTTP calls happen here or in handleDone's
// failAttempt path — never under c.mu.
func (c *Coordinator) scheduler() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
		case <-tick.C:
			c.sweepLiveness()
		}
		c.rebalance()
		c.schedule()
	}
}

// sweepLiveness expires silent workers and fails the running attempts that
// depended on them.
func (c *Coordinator) sweepLiveness() {
	dead := c.members.Expire()
	if len(dead) == 0 {
		return
	}
	gone := map[string]bool{}
	for _, id := range dead {
		gone[id] = true
	}
	type hit struct {
		id      string
		attempt int
		worker  string
	}
	var hits []hit
	c.mu.Lock()
	for _, id := range c.order {
		jb := c.jobs[id]
		if jb.state != JobRunning {
			continue
		}
		for _, ws := range jb.workers {
			if gone[ws.ID] {
				hits = append(hits, hit{jb.id, jb.attempt, ws.ID})
				break
			}
		}
	}
	c.mu.Unlock()
	for _, h := range hits {
		c.failAttempt(h.id, h.attempt, fmt.Sprintf("worker %s stopped heartbeating", h.worker))
	}
}

// failAttempt transitions a running attempt back to queued (or to failed
// once the restart budget is spent): abort the surviving workers, probe
// membership so the reschedule sees the real pool, requeue at the front.
// Safe to call from any goroutine; stale (job, attempt) pairs are no-ops.
func (c *Coordinator) failAttempt(id string, attempt int, reason string) {
	c.mu.Lock()
	jb, ok := c.jobs[id]
	if !ok || jb.state != JobRunning || jb.attempt != attempt {
		c.mu.Unlock()
		return
	}
	jb.restarts++
	workers := append([]WorkerStatus(nil), jb.workers...)
	failed := jb.restarts > jb.spec.MaxRestarts
	if failed {
		jb.state = JobFailed
		jb.errMsg = fmt.Sprintf("%s (restart budget %d exhausted)", reason, jb.spec.MaxRestarts)
		jb.j.append(Event{Job: jb.id, Type: "failed", State: JobFailed, Attempt: attempt, Msg: jb.errMsg})
		jb.j.close()
	} else {
		jb.state = JobQueued
		jb.j.append(Event{Job: jb.id, Type: "requeued", State: JobQueued, Attempt: attempt, Msg: reason})
	}
	c.mu.Unlock()

	for _, ws := range workers {
		go c.postWorker(ws.URL, "/abort", abortRequest{Job: id, Attempt: attempt}, nil)
	}
	c.probeAll()
	c.queue.Release()
	if !failed {
		c.queue.Requeue(id)
	}
	c.kick()
}

// rebalanceAttempt aborts a healthy running attempt so the job restores
// onto a changed (grown) pool. Unlike failAttempt it does not charge the
// restart budget.
func (c *Coordinator) rebalanceAttempt(id string, attempt int, reason string) {
	c.mu.Lock()
	jb, ok := c.jobs[id]
	if !ok || jb.state != JobRunning || jb.attempt != attempt {
		c.mu.Unlock()
		return
	}
	workers := append([]WorkerStatus(nil), jb.workers...)
	jb.state = JobQueued
	jb.j.append(Event{Job: jb.id, Type: "rebalance", State: JobQueued, Attempt: attempt, Msg: reason})
	c.mu.Unlock()

	for _, ws := range workers {
		go c.postWorker(ws.URL, "/abort", abortRequest{Job: id, Attempt: attempt}, nil)
	}
	c.queue.Release()
	c.queue.Requeue(id)
	c.kick()
}

// rebalance looks for running checkpointed jobs whose pool is smaller than
// the live membership (new workers joined since scheduling) and restores
// them onto the larger pool.
func (c *Coordinator) rebalance() {
	if c.opts.DisableRebalance {
		return
	}
	gen := c.members.Generation()
	live := len(c.members.Live())
	type cand struct {
		id      string
		attempt int
	}
	var cands []cand
	c.mu.Lock()
	for _, id := range c.order {
		jb := c.jobs[id]
		if jb.state != JobRunning || jb.schedGen == gen || live <= len(jb.workers) || jb.ckptDir == "" {
			continue
		}
		// Only worth interrupting once there is a sealed checkpoint to
		// restore from; otherwise the restart would redo everything.
		if _, ok := checkpoint.Latest(jb.ckptDir); !ok {
			continue
		}
		cands = append(cands, cand{jb.id, jb.attempt})
	}
	c.mu.Unlock()
	for _, cd := range cands {
		c.rebalanceAttempt(cd.id, cd.attempt, fmt.Sprintf("membership grew to %d workers", live))
	}
}

// probeAll pings every registered worker and removes the unresponsive.
func (c *Coordinator) probeAll() {
	for _, ws := range c.members.Live() {
		if !c.ping(ws.URL) {
			c.members.Remove(ws.ID)
		}
	}
}

// ping checks a worker's /ping.
func (c *Coordinator) ping(url string) bool {
	resp, err := c.client.Get(url + "/ping")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) // chaosvet:ignore — drain for connection reuse
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// postWorker POSTs a JSON body to url+path, decoding into out when non-nil.
func (c *Coordinator) postWorker(url, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s%s: %s: %s", url, path, resp.Status, msg)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body) // chaosvet:ignore — drain for connection reuse
	return nil
}

// schedule starts queued jobs while slots and workers allow.
func (c *Coordinator) schedule() {
	for {
		id, ok := c.queue.Start()
		if !ok {
			return
		}
		if !c.launch(id) {
			return // job went back to the queue front; try again on next wake
		}
	}
}

// launch runs the two-phase start of one job attempt. It returns false
// when the job was returned to the queue (no eligible pool yet).
func (c *Coordinator) launch(id string) bool {
	c.mu.Lock()
	jb, ok := c.jobs[id]
	if !ok || jb.state != JobQueued {
		c.mu.Unlock()
		c.queue.Release()
		return true
	}
	spec := jb.spec
	attempt := jb.attempt + 1
	ckptDir := jb.ckptDir
	c.mu.Unlock()

	// Probe the candidate pool so the layout only includes workers that
	// answer right now.
	var pool []WorkerStatus
	for _, ws := range c.members.Live() {
		if c.ping(ws.URL) {
			pool = append(pool, ws)
		} else {
			c.members.Remove(ws.ID)
		}
	}
	if len(pool) == 0 || (attempt == 0 && len(pool) < spec.MinWorkers) {
		c.queue.Unstart(id)
		return false
	}

	// Elastic resume: restart attempts pick up the newest sealed
	// checkpoint; the rank count is RanksPerWorker × pool size, so a
	// changed pool makes this a P→Q restore.
	resume := ""
	if attempt > 0 && ckptDir != "" {
		if dir, ok := checkpoint.Latest(ckptDir); ok {
			resume = dir
		}
	}
	planStr := spec.FaultPlan
	if attempt > 0 && planStr != "" {
		if plan, err := fault.Parse(planStr); err == nil {
			plan.Kills = nil // the chaos monkey already struck
			planStr = plan.String()
		}
	}

	rpw := spec.RanksPerWorker
	nranks := rpw * len(pool)
	runSpec := spec.Spec
	runSpec.ResumeFrom = resume

	// Phase 1: every worker reserves one port per hosted rank.
	addrs := make([]string, nranks)
	hosted := make([][]int, len(pool))
	prepared := pool[:0:0]
	var prepErr error
	for i, ws := range pool {
		ranks := make([]int, rpw)
		for k := range ranks {
			ranks[k] = i*rpw + k
		}
		hosted[i] = ranks
		var rep prepareReply
		if err := c.postWorker(ws.URL, "/prepare", prepareRequest{Job: id, Attempt: attempt, NRanks: nranks, Ranks: ranks}, &rep); err != nil {
			prepErr = fmt.Errorf("prepare on %s: %w", ws.ID, err)
			c.members.Remove(ws.ID)
			break
		}
		if len(rep.Addrs) != rpw {
			prepErr = fmt.Errorf("prepare on %s returned %d addrs for %d ranks", ws.ID, len(rep.Addrs), rpw)
			c.members.Remove(ws.ID)
			break
		}
		copy(addrs[i*rpw:], rep.Addrs)
		prepared = append(prepared, ws)
	}
	if prepErr != nil {
		for _, ws := range prepared {
			go c.postWorker(ws.URL, "/abort", abortRequest{Job: id, Attempt: attempt}, nil)
		}
		c.noteSchedulingError(id, attempt, prepErr)
		c.queue.Unstart(id)
		return false
	}

	// Commit the running state BEFORE phase 2: a fast worker can finish and
	// report done moments after its /start returns, and handleDone drops
	// reports whose (state, attempt) don't match — committing afterwards
	// would lose the report and hang the job.
	c.mu.Lock()
	prevAttempt := jb.attempt
	jb.state = JobRunning
	jb.attempt = attempt
	jb.ranks = nranks
	jb.workers = pool
	jb.reports = map[string]doneReport{}
	jb.schedGen = c.members.Generation()
	names := make([]string, len(pool))
	for i, ws := range pool {
		names[i] = ws.ID
	}
	if resume != "" {
		jb.restores++
		jb.j.append(Event{Job: id, Type: "restore", State: JobRunning, Attempt: attempt, Ranks: nranks,
			Workers: names, Msg: fmt.Sprintf("elastic restore from %s onto %d ranks", filepath.Base(resume), nranks)})
	}
	jb.j.append(Event{Job: id, Type: "scheduled", State: JobRunning, Attempt: attempt, Ranks: nranks, Workers: names})
	c.mu.Unlock()

	// Phase 2: start every worker's ranks with the assembled address list.
	var startErr error
	for _, ws := range pool {
		req := startRequest{Job: id, Attempt: attempt, NRanks: nranks, Addrs: addrs, Spec: runSpec, FaultPlan: planStr}
		if err := c.postWorker(ws.URL, "/start", req, nil); err != nil {
			startErr = fmt.Errorf("start on %s: %w", ws.ID, err)
			c.members.Remove(ws.ID)
			break
		}
	}
	if startErr != nil {
		// Roll the commit back (unless reports somehow already finished the
		// job) and put the job back at the queue front. Late reports from
		// the aborted attempt miss the reverted attempt number and are
		// dropped.
		c.mu.Lock()
		if jb.state == JobRunning && jb.attempt == attempt {
			jb.state = JobQueued
			jb.attempt = prevAttempt
		}
		c.mu.Unlock()
		for _, ws := range pool {
			go c.postWorker(ws.URL, "/abort", abortRequest{Job: id, Attempt: attempt}, nil)
		}
		c.noteSchedulingError(id, attempt, startErr)
		c.queue.Unstart(id)
		return false
	}
	return true
}

// noteSchedulingError records a failed prepare/start round in the journal
// (the attempt number is reused on the next try, which is fine: the
// prepared workers got an abort and never started ranks).
func (c *Coordinator) noteSchedulingError(id string, attempt int, err error) {
	c.mu.Lock()
	if jb, ok := c.jobs[id]; ok {
		jb.j.append(Event{Job: id, Type: "requeued", State: jb.state, Attempt: attempt,
			Msg: fmt.Sprintf("scheduling failed: %v", err)})
	}
	c.mu.Unlock()
}
