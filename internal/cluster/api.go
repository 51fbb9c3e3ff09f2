package cluster

import (
	"fmt"

	"repro/internal/cluster/apps"
	"repro/internal/comm/fault"
)

// JobState is one station of the job lifecycle state machine:
//
//	queued --schedule--> running --all workers ok--> done
//	  ^                     |
//	  +--failure/rebalance--+  (abort survivors, probe membership,
//	                            resume = latest sealed checkpoint)
//
// A job whose failure count exceeds MaxRestarts leaves the loop as failed.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// JobSpec is the client-facing description of one job (POST /jobs). The
// embedded apps.Spec names the computation; CheckpointDir inside it is
// coordinator-assigned and ignored on submission.
type JobSpec struct {
	apps.Spec
	// RanksPerWorker sets how many virtual ranks each live worker hosts
	// for this job; the attempt's rank count is RanksPerWorker × live
	// workers, so membership changes translate into elastic P→Q restores.
	// Zero takes the coordinator default.
	RanksPerWorker int `json:"ranks_per_worker,omitempty"`
	// MinWorkers delays the first attempt until at least this many workers
	// are live (later attempts run on whatever survives). Zero means 1.
	MinWorkers int `json:"min_workers,omitempty"`
	// FaultPlan injects a deterministic fault schedule (see
	// internal/comm/fault) under every rank's transport. Kill specs act as
	// the chaos monkey: a worker hosting a killed rank dies with it.
	// Restart attempts strip kill specs (the monkey already struck) but
	// keep the benign noise.
	FaultPlan string `json:"fault_plan,omitempty"`
	// MaxRestarts bounds failure-triggered restarts before the job is
	// declared failed. Zero takes the coordinator default.
	MaxRestarts int `json:"max_restarts,omitempty"`
}

// JobStatus is the client-facing view of one job (GET /jobs/{id}).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Attempt counts schedulings (0 = first); Restarts counts
	// failure-triggered re-runs; Restores counts attempts that resumed
	// from a sealed checkpoint (the elastic P→Q restores).
	Attempt  int `json:"attempt"`
	Restarts int `json:"restarts"`
	Restores int `json:"restores"`
	// Ranks and Workers describe the current (or final) attempt.
	Ranks   int      `json:"ranks,omitempty"`
	Workers []string `json:"workers,omitempty"`
	// Checksum is the application checksum once the job is done.
	Checksum    float64 `json:"checksum,omitempty"`
	HasChecksum bool    `json:"has_checksum,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// WorkerStatus is the membership view of one worker (GET /cluster).
type WorkerStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// AgeMS is milliseconds since the last heartbeat or registration.
	AgeMS int64 `json:"age_ms"`
}

// ClusterStatus is the coordinator's membership and queue snapshot.
type ClusterStatus struct {
	Generation int64          `json:"generation"`
	Workers    []WorkerStatus `json:"workers"`
	Queued     int            `json:"queued"`
	Running    int            `json:"running"`
	Jobs       int            `json:"jobs"`
}

// Event is one NDJSON record of a job's stream (GET /jobs/{id}/stream).
type Event struct {
	Seq     int      `json:"seq"`
	Job     string   `json:"job"`
	Type    string   `json:"type"` // submitted, scheduled, restore, report, requeued, rebalance, done, failed
	State   JobState `json:"state"`
	Attempt int      `json:"attempt"`
	Ranks   int      `json:"ranks,omitempty"`
	Workers []string `json:"workers,omitempty"`
	Msg     string   `json:"msg,omitempty"`
	// Checksum is set on "report" (one worker's value) and "done" (the
	// job's final value) events.
	Checksum    float64 `json:"checksum,omitempty"`
	HasChecksum bool    `json:"has_checksum,omitempty"`
}

// Internal coordinator↔worker wire types. The worker-side endpoints
// (/prepare, /start, /abort, /ping) and the coordinator-side report sink
// (/internal/done) speak these.

// prepareRequest asks a worker to reserve one TCP listen port per hosted
// rank of a job attempt.
type prepareRequest struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
	NRanks  int    `json:"nranks"`
	Ranks   []int  `json:"ranks"`
}

// prepareReply returns the reserved addresses, index-aligned with Ranks.
type prepareReply struct {
	Addrs []string `json:"addrs"`
}

// startRequest launches the prepared ranks: Addrs is the full rank→address
// list assembled across every worker of the attempt.
type startRequest struct {
	Job       string    `json:"job"`
	Attempt   int       `json:"attempt"`
	NRanks    int       `json:"nranks"`
	Addrs     []string  `json:"addrs"`
	Spec      apps.Spec `json:"spec"`
	FaultPlan string    `json:"fault_plan,omitempty"`
}

// abortRequest tears down a job attempt's transports on a worker.
type abortRequest struct {
	Job     string `json:"job"`
	Attempt int    `json:"attempt"`
}

// doneReport is a worker's verdict on its hosted ranks of one attempt.
type doneReport struct {
	Job      string  `json:"job"`
	Attempt  int     `json:"attempt"`
	Worker   string  `json:"worker"`
	Err      string  `json:"err,omitempty"`
	Checksum float64 `json:"checksum"`
	MaxErr   float64 `json:"max_err"`
	Clock    float64 `json:"clock"`
}

// registerRequest announces a worker to the coordinator.
type registerRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// registerReply acknowledges with the membership generation.
type registerReply struct {
	Generation int64 `json:"generation"`
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// validateSpec normalizes and validates a submitted job spec against the
// coordinator defaults.
func validateSpec(spec *JobSpec, defRanksPerWorker, defMaxRestarts int) error {
	spec.CheckpointDir = "" // coordinator-assigned
	spec.Normalize()
	if spec.RanksPerWorker <= 0 {
		spec.RanksPerWorker = defRanksPerWorker
	}
	if spec.MinWorkers <= 0 {
		spec.MinWorkers = 1
	}
	if spec.MaxRestarts <= 0 {
		spec.MaxRestarts = defMaxRestarts
	}
	if spec.RanksPerWorker > 64 {
		return fmt.Errorf("cluster: ranks_per_worker %d is unreasonable (max 64)", spec.RanksPerWorker)
	}
	// Every worker's /start parses the plan again; refusing it here keeps a
	// bad submission from failing the start on each worker in turn.
	if _, err := fault.Parse(spec.FaultPlan); err != nil {
		return fmt.Errorf("cluster: bad fault_plan: %v", err)
	}
	// The coordinator assigns CheckpointDir at submission; stand in a
	// placeholder so Validate's cadence-needs-dir check passes.
	tmp := spec.Spec
	if tmp.CheckpointEvery > 0 {
		tmp.CheckpointDir = "pending"
	}
	return tmp.Validate()
}
