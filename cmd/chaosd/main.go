// Command chaosd is the CHAOS cluster service. One binary, five roles:
//
//	chaosd coordinator -listen 127.0.0.1:8970
//	    Serve the cluster API: accept jobs (POST /jobs), queue them FIFO
//	    with a concurrency cap, schedule each across the live worker pool,
//	    and restart interrupted jobs from their latest sealed checkpoint
//	    (elastic P→Q restore) when workers come and go.
//
//	chaosd worker -coordinator http://127.0.0.1:8970 -id w1
//	    Join the pool: register, heartbeat, and host virtual ranks of
//	    scheduled jobs over the TCP transport. A fault-plan kill landing on
//	    a hosted rank kills the whole worker (the chaos monkey).
//
//	chaosd submit -coordinator http://127.0.0.1:8970 -app dsmc -wait
//	    Submit one job, optionally stream its NDJSON event log and wait
//	    for the final checksum.
//
//	chaosd oneshot -app dsmc -workers 3
//	    Spin up an in-process coordinator plus worker pool, run one job to
//	    completion, print the checksum, and exit — the reference path CI
//	    compares the multi-process cluster against.
//
//	chaosd rank -rank 0 -addrs 127.0.0.1:9310,127.0.0.1:9311
//	    Run ONE rank of a multi-process computation over TCP, no
//	    coordinator: one process per -addrs entry, each with its own -rank
//	    and otherwise identical flags (-fault-plan included). The default
//	    app validates the Figure 1 loop against the sequential one; charmm
//	    and dsmc take -ckpt-dir / -ckpt-every / -resume for (elastic)
//	    restart. Rank 0 prints the global outcome. SIGINT or SIGTERM closes
//	    the transport first, so survivors fail fast (exit 3), never hang.
//
// Exit status: 0 on success, 2 on bad input (one "chaosd:" line plus
// usage), 3 when a peer rank failed, 1 on any other error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/cluster/apps"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// roles maps each role name to its flag declarations; the returned body
// runs once the flags are parsed and writes its report to stdout.
var roles = map[string]func(fs *flag.FlagSet) func(stdout io.Writer) error{
	"coordinator": coordinator,
	"worker":      worker,
	"submit":      submit,
	"oneshot":     oneshot,
	"rank":        rank,
}

// exitError is an error with its own exit status: 2 for bad input (the
// role's usage follows the message), 3 for a failed peer rank.
type exitError struct {
	error
	code int
}

func badInput(err error) error { return exitError{err, 2} }

func run(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	role, ok := roles[name]
	switch {
	case name == "-h" || name == "-help" || name == "--help" || name == "help":
		usage(stderr)
		return 0
	case name == "":
		fmt.Fprintln(stderr, "chaosd: missing role")
		usage(stderr)
		return 2
	case !ok:
		fmt.Fprintf(stderr, "chaosd: unknown role %q\n", name)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("chaosd "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := role(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	if fs.NArg() > 0 {
		err = badInput(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	} else {
		err = body(stdout)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "chaosd:", err)
	var ee exitError
	if !errors.As(err, &ee) {
		return 1
	}
	if ee.code == 2 {
		fs.Usage()
	}
	return ee.code
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: chaosd <role> [flags]

roles:
  coordinator   serve the cluster API and schedule jobs over the worker pool
  worker        join a coordinator's pool and host virtual ranks
  submit        submit a job to a coordinator (optionally stream and wait)
  oneshot       run one job on an in-process cluster and print its checksum
  rank          run one rank of a multi-process computation over TCP

run "chaosd <role> -h" for the role's flags`)
}

// appFlags declares the application flags shared by submit, oneshot and
// rank; app is the -app default.
func appFlags(fs *flag.FlagSet, app string) *cluster.JobSpec {
	spec := &cluster.JobSpec{}
	fs.StringVar(&spec.App, "app", app, "computation: fig1 (Figure 1 loop), charmm, dsmc")
	fs.IntVar(&spec.Elems, "elems", 0, "fig1 array length / charmm atoms / dsmc molecules (0 = 4000)")
	fs.IntVar(&spec.Iters, "iters", 0, "fig1 irregular-loop iterations (0 = 12000)")
	fs.IntVar(&spec.Steps, "steps", 0, "charmm/dsmc time steps (0 = 12)")
	fs.IntVar(&spec.CheckpointEvery, "ckpt-every", 0, "checkpoint every N steps (0 = never)")
	fs.StringVar(&spec.FaultPlan, "fault-plan", "",
		`deterministic fault plan, e.g. "seed=7,dup=0.05,kill=1@200"; a kill spec takes down its rank's process`)
	return spec
}

// jobFlags declares the job-spec flags of submit and oneshot: the
// application plus the cluster's scheduling knobs.
func jobFlags(fs *flag.FlagSet) *cluster.JobSpec {
	spec := appFlags(fs, "dsmc")
	fs.IntVar(&spec.RanksPerWorker, "ranks-per-worker", 0, "virtual ranks per worker (0 = coordinator default)")
	fs.IntVar(&spec.MinWorkers, "min-workers", 0, "wait for at least this many workers before the first attempt")
	fs.IntVar(&spec.MaxRestarts, "max-restarts", 0, "failure-restart budget (0 = coordinator default)")
	return spec
}

// coordinator serves the cluster API until SIGINT/SIGTERM.
func coordinator(fs *flag.FlagSet) func(io.Writer) error {
	listen := fs.String("listen", "127.0.0.1:8970", "API listen address")
	maxConc := fs.Int("max-concurrent", 2, "maximum simultaneously running jobs")
	dataDir := fs.String("data-dir", "", "checkpoint base directory (default: a temp dir)")
	rpw := fs.Int("ranks-per-worker", 2, "default virtual ranks per worker per job")
	maxRestarts := fs.Int("max-restarts", 3, "default failure-restart budget per job")
	ttl := fs.Duration("heartbeat-ttl", 5*time.Second, "expire workers silent for this long")
	probe := fs.Duration("probe-interval", time.Second, "liveness sweep interval")
	noRebalance := fs.Bool("no-rebalance", false, "do not restore running jobs onto newly joined workers")
	return func(stdout io.Writer) error {
		c := cluster.NewCoordinator(cluster.Options{
			MaxConcurrent: *maxConc, DataDir: *dataDir, RanksPerWorker: *rpw,
			MaxRestarts: *maxRestarts, HeartbeatTTL: *ttl, ProbeInterval: *probe,
			DisableRebalance: *noRebalance,
		})
		defer c.Close()

		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: c.Handler()}
		fmt.Fprintf(stdout, "chaosd: coordinator serving on http://%s\n", ln.Addr())
		go srv.Serve(ln)

		<-signals()
		fmt.Fprintln(stdout, "chaosd: coordinator shutting down")
		srv.Close()
		return nil
	}
}

// worker joins a coordinator's pool until SIGINT/SIGTERM or a chaos-monkey
// suicide.
func worker(fs *flag.FlagSet) func(io.Writer) error {
	coord := fs.String("coordinator", "http://127.0.0.1:8970", "coordinator base URL")
	id := fs.String("id", "", "worker id (default: host:port of the listen address)")
	listen := fs.String("listen", "127.0.0.1:0", "worker API listen address")
	heartbeat := fs.Duration("heartbeat", time.Second, "heartbeat interval")
	return func(stdout io.Writer) error {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		self := "http://" + ln.Addr().String()
		wid := *id
		if wid == "" {
			wid = ln.Addr().String()
		}
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			ID: wid, CoordinatorURL: strings.TrimRight(*coord, "/"), SelfURL: self,
			HeartbeatEvery: *heartbeat,
		})
		if err != nil {
			ln.Close()
			return err
		}
		srv := &http.Server{Handler: w.Handler()}
		fmt.Fprintf(stdout, "chaosd: worker %s serving on %s, coordinator %s\n", wid, self, *coord)
		go srv.Serve(ln)

		select {
		case <-signals():
			fmt.Fprintf(stdout, "chaosd: worker %s shutting down\n", wid)
		case <-w.Dead():
			fmt.Fprintf(stdout, "chaosd: worker %s killed by fault plan\n", wid)
		}
		w.Close()
		srv.Close()
		return nil
	}
}

// submit posts one job and optionally follows it to completion.
func submit(fs *flag.FlagSet) func(io.Writer) error {
	coord := fs.String("coordinator", "http://127.0.0.1:8970", "coordinator base URL")
	spec := jobFlags(fs)
	stream := fs.Bool("stream", false, "follow the job's NDJSON event log on stdout")
	wait := fs.Bool("wait", false, "block until the job reaches a terminal state")
	expect := fs.String("expect", "", "fail unless the final checksum matches this value (implies -wait)")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting after this long")
	return func(stdout io.Writer) error {
		var want float64
		if *expect != "" {
			if _, err := fmt.Sscanf(*expect, "%g", &want); err != nil {
				return badInput(fmt.Errorf("bad -expect %q: %v", *expect, err))
			}
		}
		base := strings.TrimRight(*coord, "/")
		st, err := post(base, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chaosd: submitted %s (%s)\n", st.ID, st.Spec.App)

		if !*wait && *expect == "" && !*stream {
			return nil
		}
		if *stream {
			go streamEvents(stdout, base, st.ID)
		}
		if !*wait && *expect == "" {
			// -stream without -wait: follow until the stream closes.
			return streamEvents(stdout, base, st.ID)
		}
		final, err := waitDone(base, st.ID, *timeout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chaosd: %s done: checksum %.9f (attempts %d, restores %d, ranks %d)\n",
			final.ID, final.Checksum, final.Attempt+1, final.Restores, final.Ranks)
		if *expect != "" {
			if !closeEnough(final.Checksum, want) {
				return fmt.Errorf("checksum %.12g does not match expected %.12g", final.Checksum, want)
			}
			fmt.Fprintln(stdout, "chaosd: checksum matches expected value")
		}
		return nil
	}
}

// post submits spec to the coordinator at base and returns the accepted
// job's status.
func post(base string, spec *cluster.JobSpec) (cluster.JobStatus, error) {
	var st cluster.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("submit rejected: %s: %s", resp.Status, msg)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// streamEvents copies a job's NDJSON stream to stdout until it closes.
func streamEvents(stdout io.Writer, base, id string) error {
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Fprintln(stdout, sc.Text())
	}
	return sc.Err()
}

// waitDone polls a job's status until it is terminal, and fails unless the
// job is done.
func waitDone(base, id string, timeout time.Duration) (cluster.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			return cluster.JobStatus{}, err
		}
		var st cluster.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch {
		case err != nil:
			return st, err
		case st.State == cluster.JobDone:
			return st, nil
		case st.State.Terminal():
			return st, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		case time.Now().After(deadline):
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// closeEnough compares checksums with the repo's relative tolerance.
func closeEnough(got, want float64) bool {
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) <= 1e-9*scale
}

// oneshot runs one job on an in-process cluster and prints its checksum on
// a parseable line ("oneshot checksum <value>").
func oneshot(fs *flag.FlagSet) func(io.Writer) error {
	spec := jobFlags(fs)
	nworkers := fs.Int("workers", 2, "in-process worker count")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	return func(stdout io.Writer) error {
		if *nworkers < 1 {
			return badInput(fmt.Errorf("-workers must be at least 1, got %d", *nworkers))
		}
		c := cluster.NewCoordinator(cluster.Options{HeartbeatTTL: 30 * time.Second})
		defer c.Close()
		cln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		csrv := &http.Server{Handler: c.Handler()}
		go csrv.Serve(cln)
		defer csrv.Close()
		base := "http://" + cln.Addr().String()

		for i := 0; i < *nworkers; i++ {
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			w, err := cluster.NewWorker(cluster.WorkerOptions{
				ID:             fmt.Sprintf("w%d", i),
				CoordinatorURL: base,
				SelfURL:        "http://" + wln.Addr().String(),
				HeartbeatEvery: 250 * time.Millisecond,
			})
			if err != nil {
				wln.Close()
				return err
			}
			defer w.Close()
			wsrv := &http.Server{Handler: w.Handler()}
			go wsrv.Serve(wln)
			defer wsrv.Close()
		}

		spec.MinWorkers = *nworkers
		st, err := post(base, spec)
		if err != nil {
			return err
		}
		final, err := waitDone(base, st.ID, *timeout)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chaosd: %s on %d workers × %d ranks\n", final.Spec.App, *nworkers, final.Ranks)
		fmt.Fprintf(stdout, "oneshot checksum %.9f\n", final.Checksum)
		return nil
	}
}

// rank runs one rank of a multi-process computation, one OS process per
// rank over TCP.
func rank(fs *flag.FlagSet) func(io.Writer) error {
	spec := appFlags(fs, "fig1")
	self := fs.Int("rank", -1, "this process's rank")
	addrList := fs.String("addrs", "", "comma-separated listen addresses, one per rank")
	timeout := fs.Duration("timeout", 30*time.Second, "mesh connection timeout")
	fs.StringVar(&spec.CheckpointDir, "ckpt-dir", "", "directory for periodic checkpoints (charmm, dsmc)")
	resume := fs.String("resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	fs.IntVar(&spec.CrashStep, "crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	fs.IntVar(&spec.CrashRank, "crash-rank", 0, "rank that crashes at -crash-step")
	return func(stdout io.Writer) (err error) {
		addrs, err := parseAddrs(*addrList, *self)
		if err != nil {
			return badInput(err)
		}
		n, app := len(addrs), spec.Spec
		app.Normalize()
		if app.ResumeFrom, err = checkpoint.ResolveResume(*resume, app.CheckpointDir); err != nil {
			return badInput(err)
		}
		if app.CrashRank >= n {
			return badInput(fmt.Errorf("-crash-rank %d is not one of the %d ranks", app.CrashRank, n))
		}
		if err := app.Validate(); err != nil {
			return badInput(err)
		}
		if err := app.CheckResume(); err != nil {
			return badInput(err)
		}
		plan, err := fault.Parse(spec.FaultPlan)
		if err != nil {
			return badInput(err)
		}

		ep, err := comm.NewTCPEndpoint(*self, addrs, *timeout)
		if err != nil {
			return err
		}
		var tr comm.Transport = ep
		if spec.FaultPlan != "" {
			// Both ends of a link derive the fault schedule from the shared
			// seed, so every process must be given the same plan string.
			tr = fault.Wrap(ep, n, plan)
		}
		defer tr.Close()

		// On SIGINT/SIGTERM, close the transport before exiting: the
		// connection teardown poisons peer mailboxes, turning a silent
		// disappearance into an immediate PeerFailure on the survivors.
		sigc := signals()
		defer func() { signal.Stop(sigc); close(sigc) }()
		go func() {
			if s, ok := <-sigc; ok {
				fmt.Fprintf(fs.Output(), "chaosd: rank %d caught %v: closing transport\n", *self, s)
				_ = tr.Close() // exiting anyway; the teardown itself is the flush
				os.Exit(1)
			}
		}()
		// A peer process crashing (or being killed) poisons our mailboxes
		// and surfaces as a PeerFailure panic out of RunRank.
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(comm.PeerFailure); !ok {
					panic(e)
				}
				err = exitError{fmt.Errorf("rank %d aborted: a peer rank failed; restart from the last sealed checkpoint", *self), 3}
			}
		}()

		var res apps.Result
		clock, stats := comm.RunRank(*self, n, costmodel.IPSC860(), tr, func(p *comm.Proc) {
			res = apps.Run(p, app)
			if p.Rank() != 0 {
				return
			}
			switch app.App {
			case "fig1":
				fmt.Fprintf(stdout, "chaosd: %d ranks (one OS process each), %d elems, %d iters\n", n, app.Elems, app.Iters)
				fmt.Fprintf(stdout, "chaosd: global max |error| vs sequential loop = %.2e\n", res.MaxErr)
				if res.MaxErr <= 1e-9 {
					fmt.Fprintln(stdout, "chaosd: OK")
				}
			case "charmm":
				fmt.Fprintf(stdout, "chaosd: charmm %d atoms, %d steps: checksum %.9f\n", app.Elems, app.Steps, res.Checksum)
			case "dsmc":
				fmt.Fprintf(stdout, "chaosd: dsmc %d molecules, %d steps: checksum %.9f\n", app.Elems, app.Steps, res.Checksum)
			}
		})
		fmt.Fprintf(stdout, "chaosd: rank %d done: virtual %.4fs, sent %d msgs / %d bytes\n",
			*self, clock, stats.MsgsSent, stats.BytesSent)
		if app.App == "fig1" && res.MaxErr > 1e-9 {
			return fmt.Errorf("fig1 result mismatch: global max |error| %.2e vs the sequential loop", res.MaxErr)
		}
		return nil
	}
}

// parseAddrs validates the -rank/-addrs pair up front: the rank must index
// the address list, and the addresses must be non-empty and pairwise
// distinct (two ranks sharing an address could never form a mesh).
func parseAddrs(addrList string, rank int) ([]string, error) {
	addrs := strings.Split(addrList, ",")
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-addrs entry %d of %d is empty", i+1, len(addrs))
		}
		if j, dup := seen[a]; dup {
			return nil, fmt.Errorf("-addrs entries %d and %d are both %q: every rank needs its own address", j+1, i+1, a)
		}
		seen[a] = i
		addrs[i] = a
	}
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("-rank %d out of range: -addrs lists %d ranks", rank, len(addrs))
	}
	return addrs, nil
}

// signals returns a channel that receives SIGINT and SIGTERM.
func signals() chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}
