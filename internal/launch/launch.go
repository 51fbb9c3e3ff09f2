// Package launch is the command line cmd/charmm and cmd/dsmc share: the
// common flags, the refusal of bad input before any rank starts (one
// "name: complaint" line, the usage, exit status 2), the modeled or measured
// run, and the common part of the report. A command adds its own flags to
// FS, maps the parsed values to its Config and prints its own report lines.
// The common flags include -remap, adapt.NewTrigger's selector, and the
// checkpoint.Recovery flags: -ckpt-dir and -ckpt-every, -resume (a sealed
// checkpoint, or "latest" under -ckpt-dir; on another processor count, an
// elastic restart), -crash-step and -crash-rank.
//
// The same command also runs one rank of a multi-process run, one OS process
// per rank over TCP:
//
//	dsmc -rank 0 -addrs 127.0.0.1:9310,127.0.0.1:9311 [flags]
//
// Start one process per -addrs entry, each with its own -rank and otherwise
// identical flags (-fault-plan included). Rank 0 prints the command's result
// lines; every process prints its own rank's virtual clock, messages and
// bytes. SIGINT or SIGTERM closes the transport first, so the survivors fail
// fast instead of hanging. A process whose run fails exits 3 when a peer
// rank failed or the fault plan killed this one, and 1 on a transport error.
// A rank that panics (-crash-step, or any other panic in the run) makes the
// process exit 4, in-process and under -addrs alike, after one
// "name: rank R crashed: value" line and the stack on stderr.
package launch

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
	"repro/internal/prof"
)

// Launcher holds the shared flags; the exported fields are valid after Parse.
type Launcher struct {
	FS          *flag.FlagSet
	Procs       int
	Remap       string
	AdaptVerify bool
	Recovery    checkpoint.Recovery // -resume "latest" already resolved
	// Rank is this process's rank under -addrs, and 0 otherwise: the rank
	// whose results the report's head and tail describe.
	Rank int

	// Under -addrs, Run runs rank Rank of a len(addrs)-rank run over TCP
	// (-timeout to connect the mesh), through plan's faults if -fault-plan
	// is given.
	addrs   []string
	timeout time.Duration
	plan    *fault.Plan

	trace, measure bool
	startProfiles  func() (stop func())
	// measureOpts configures -measure runs; tests script its Clock.
	measureOpts comm.MeasureOpts
}

// New registers the shared flags on a fresh flag set named after the
// command.
func New(name string, stderr io.Writer) *Launcher {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	l := &Launcher{FS: fs, startProfiles: prof.Flags(fs)}
	fs.IntVar(&l.Procs, "procs", 16, "number of simulated processors")
	fs.StringVar(&l.Remap, "remap", "0", "remap every N steps (0 = never after setup), or static or policy")
	fs.BoolVar(&l.AdaptVerify, "adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	fs.BoolVar(&l.trace, "trace", false, "print a virtual-time Gantt chart and phase summary")
	r := &l.Recovery
	fs.StringVar(&r.CheckpointDir, "ckpt-dir", "", "directory for periodic checkpoints")
	fs.IntVar(&r.CheckpointEvery, "ckpt-every", 0, "checkpoint every N steps (0 = never)")
	fs.StringVar(&r.ResumeFrom, "resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	fs.IntVar(&r.CrashStep, "crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	fs.IntVar(&r.CrashRank, "crash-rank", 0, "rank that crashes at -crash-step")
	fs.BoolVar(&l.measure, "measure", false, "run in measured wall-clock mode (real phase timers alongside virtual time)")
	fs.IntVar(&l.Rank, "rank", 0, "this process's rank (with -addrs)")
	fs.Func("addrs", "comma-separated listen addresses, one per rank: run rank -rank of them in this process, over TCP", func(s string) error {
		l.addrs = strings.Split(s, ",")
		return nil
	})
	fs.DurationVar(&l.timeout, "timeout", 30*time.Second, "mesh connection timeout (with -addrs)")
	fs.Func("fault-plan", `deterministic fault plan, e.g. "seed=7,dup=0.05,kill=1@200" (with -addrs); a kill spec takes down its rank's process`, func(s string) (err error) {
		l.plan, err = fault.Parse(s)
		return err
	})
	return l
}

// Parse parses args and vets what the shared flags alone can get wrong. When
// ok is false the command exits with code.
func (l *Launcher) Parse(args []string) (code int, ok bool) {
	if err := l.FS.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	set := map[string]bool{}
	l.FS.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var err error
	switch {
	case l.FS.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", l.FS.Arg(0))
	case l.addrs != nil:
		err = l.vetAddrs(set)
	case set["rank"] || set["timeout"] || set["fault-plan"]:
		err = errors.New("-rank, -timeout and -fault-plan need -addrs")
	}
	switch {
	case err != nil:
	case l.Procs < 1:
		err = fmt.Errorf("-procs must be at least 1, got %d", l.Procs)
	case l.Recovery.CrashRank < 0 || l.Recovery.CrashRank >= l.Procs:
		err = fmt.Errorf("-crash-rank %d is not one of the %d ranks", l.Recovery.CrashRank, l.Procs)
	default:
		l.Recovery.ResumeFrom, err = checkpoint.ResolveResume(l.Recovery.ResumeFrom, l.Recovery.CheckpointDir)
	}
	if err != nil {
		return l.Refuse(err), false
	}
	return 0, true
}

// vetAddrs vets the multi-process flags and sets Procs to the rank count.
// The addresses must be non-empty and pairwise distinct (two ranks sharing
// one could never form a mesh), and -rank must index them.
func (l *Launcher) vetAddrs(set map[string]bool) error {
	switch {
	case set["procs"]:
		return errors.New("-procs and -addrs both set the rank count: give one of them")
	case l.measure || l.trace:
		return errors.New("-measure and -trace report every rank's results; a process under -addrs has only its own")
	case !set["rank"]:
		return errors.New("-addrs needs this process's -rank")
	}
	seen := make(map[string]int, len(l.addrs))
	for i, a := range l.addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("-addrs entry %d of %d is empty", i+1, len(l.addrs))
		}
		if j, dup := seen[a]; dup {
			return fmt.Errorf("-addrs entries %d and %d are both %q: every rank needs its own address", j+1, i+1, a)
		}
		seen[a] = i
		l.addrs[i] = a
	}
	if l.Rank < 0 || l.Rank >= len(l.addrs) {
		return fmt.Errorf("-rank %d out of range: -addrs lists %d ranks", l.Rank, len(l.addrs))
	}
	l.Procs = len(l.addrs)
	return nil
}

// Refuse prints the one-line complaint and the usage, and returns the exit
// status.
func (l *Launcher) Refuse(complaint error) int {
	name := l.FS.Name()
	fmt.Fprintf(l.FS.Output(), "%s: %s\n", name, strings.TrimPrefix(complaint.Error(), name+": "))
	l.FS.Usage()
	return 2
}

// Run executes body on every rank of the simulated machine, measured under
// -measure, or under -addrs on this process's rank only; profiled under
// -cpuprofile/-memprofile. rep is nil when the run failed, after one line on
// stderr (and, when a rank crashed, its stack); the command then exits with
// code.
func (l *Launcher) Run(body func(p *comm.Proc)) (rep *comm.Report, code int) {
	defer l.startProfiles()()
	var once sync.Once
	crash := "" // the first rank panic that is not a PeerFailure, and its stack
	run := body
	body = func(p *comm.Proc) {
		defer func() {
			if e := recover(); e != nil {
				if _, peer := e.(comm.PeerFailure); !peer {
					once.Do(func() { crash = fmt.Sprintf("rank %d crashed: %v\n%s", p.Rank(), e, debug.Stack()) })
				}
				panic(e) // on to fail the run, and its peers
			}
		}()
		run(p)
	}
	defer func() {
		if e := recover(); e != nil {
			if crash == "" {
				panic(e)
			}
			fmt.Fprintf(l.FS.Output(), "%s: %s", l.FS.Name(), crash)
			rep, code = nil, 4
		}
	}()
	switch {
	case l.addrs != nil:
		return l.runRank(body)
	case l.measure:
		return comm.RunMeasuredTransport(l.Procs, costmodel.IPSC860(), comm.NewMemTransport(l.Procs), l.measureOpts, body), 0
	}
	return comm.Run(l.Procs, costmodel.IPSC860(), body), 0
}

// runRank runs body as rank Rank of the multi-process run over TCP, then a
// barrier, so that no process closes its connections while a peer still
// waits on them. The report holds this rank's clock and counts only.
func (l *Launcher) runRank(body func(p *comm.Proc)) (rep *comm.Report, code int) {
	say := func(format string, args ...any) {
		fmt.Fprintf(l.FS.Output(), "%s: %s\n", l.FS.Name(), fmt.Sprintf(format, args...))
	}
	ep, err := comm.NewTCPEndpoint(l.Rank, l.addrs, l.timeout)
	if err != nil {
		say("%v", err)
		return nil, 1
	}
	var tr comm.Transport = ep
	var ft *fault.Transport
	if l.plan != nil {
		// Both ends of a link derive the fault schedule from the shared
		// seed, so every process must be given the same plan.
		ft = fault.Wrap(ep, l.Procs, l.plan)
		tr = ft
	}
	defer tr.Close()

	// On SIGINT/SIGTERM, close the transport before exiting: the connection
	// teardown poisons peer mailboxes, turning a silent disappearance into
	// an immediate PeerFailure on the survivors.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigc); close(sigc) }()
	go func() {
		if s, ok := <-sigc; ok {
			say("rank %d caught %v: closing transport", l.Rank, s)
			_ = tr.Close() // exiting anyway; the teardown itself is the flush
			os.Exit(1)
		}
	}()
	// A peer process crashing (or being killed) poisons our mailboxes and
	// surfaces as a PeerFailure panic out of RunRank; so does a fault-plan
	// kill of this rank, which the plan's trace tells apart. Any other panic
	// is this rank's own crash, which Run reports.
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(comm.PeerFailure); !ok {
				panic(e)
			}
			why := "a peer rank failed"
			if ft != nil && slices.ContainsFunc(ft.Trace(), func(e fault.Event) bool {
				return e.Action == "kill" && e.From == l.Rank
			}) {
				why = "the fault plan killed it"
			}
			say("rank %d aborted: %s; restart from the last sealed checkpoint", l.Rank, why)
			rep, code = nil, 3
		}
	}()

	rep = &comm.Report{N: l.Procs, Clocks: make([]float64, l.Procs), Stats: make([]comm.Stats, l.Procs)}
	rep.Clocks[l.Rank], rep.Stats[l.Rank] = comm.RunRank(l.Rank, l.Procs, costmodel.IPSC860(), tr, func(p *comm.Proc) {
		body(p)
		p.Barrier()
	})
	return rep, 0
}

// Report prints the run: head (the command's title lines), the machine-level
// metrics, tail (the command's result lines), the phase table — the maximum
// over ranks of each phase some rank spent time in, keys padded to
// keyWidth — then under -measure the per-rank table (rankTable), and under
// -trace the Gantt chart of rep.Spans and the summary of rep.Phases
// (phaseSummary). Under -addrs rank 0 prints head and tail, and
// every rank one line of its own virtual clock, messages and bytes.
func (l *Launcher) Report(w io.Writer, rep *comm.Report, head, tail string, keyWidth int) {
	if l.addrs != nil {
		if l.Rank == 0 {
			fmt.Fprint(w, head)
			fmt.Fprintf(w, "  processors          : %d (one OS process each)\n", l.Procs)
			fmt.Fprint(w, tail)
		}
		fmt.Fprintf(w, "  %-20s: %.6f virtual s, %d msgs / %d bytes sent\n",
			fmt.Sprintf("rank %d", l.Rank), rep.Clocks[l.Rank], rep.Stats[l.Rank].MsgsSent, rep.Stats[l.Rank].BytesSent)
		return
	}
	fmt.Fprint(w, head)
	fmt.Fprintf(w, "  processors          : %d\n", l.Procs)
	fmt.Fprintf(w, "  execution time      : %10.3f virtual s (wall %.2fs)\n", rep.MaxClock(), rep.Wall.Seconds())
	fmt.Fprintf(w, "  computation time    : %10.3f virtual s (mean)\n", rep.MeanComputeTime())
	fmt.Fprintf(w, "  communication time  : %10.3f virtual s (mean)\n", rep.MeanCommTime())
	fmt.Fprintf(w, "  load balance index  : %10.3f\n", rep.LoadBalance())
	fmt.Fprintf(w, "  messages / volume   : %d msgs, %.2f MB\n", rep.TotalMsgsSent(), float64(rep.TotalBytesSent())/1e6)
	fmt.Fprint(w, tail)
	if l.measure {
		fmt.Fprintf(w, "  measured wall       : %10.3f s (max over ranks, %d workers)\n", rep.MaxMeasuredWall(), rep.Workers)
		fmt.Fprintf(w, "  measured comm wait  : %10.3f s (mean over ranks)\n", rep.MeanMeasuredCommWall())
		for r, m := range rep.Measured {
			fmt.Fprintf(w, "  receives, rank %-4d : %d spun, %d yielded, %d parked\n", r, m.Waits.Spun, m.Waits.Yielded, m.Waits.Parked)
		}
	}

	var keys []string // the phases some rank spent time in
	for _, ph := range rep.Phases {
		for k, v := range ph {
			if v > 0 && !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	if l.measure {
		fmt.Fprintln(w, "  phase breakdown (max over ranks: virtual s | measured s):")
	} else {
		fmt.Fprintln(w, "  phase breakdown (max over ranks, virtual s):")
	}
	for _, k := range keys {
		fmt.Fprintf(w, "    %-*s %10.3f", keyWidth, k, rep.PhaseMax(k))
		if l.measure {
			fmt.Fprintf(w, "  %10.4f", rep.MeasuredPhaseMax(k))
		}
		fmt.Fprintln(w)
	}
	if l.measure {
		rankTable(w, rep, keys)
	}

	if l.trace {
		fmt.Fprintln(w)
		fmt.Fprint(w, gantt(rep.Spans, 100))
		fmt.Fprintln(w)
		phaseSummary(w, rep)
	}
}

// rankTable prints one row per rank of a measured run: each phase's virtual
// and measured seconds, the measured receive wait (Measured.CommWall) and
// the messages and bytes the rank sent. The maximum over ranks above hides
// which rank waits, and in which phase; this shows it.
func rankTable(w io.Writer, rep *comm.Report, keys []string) {
	rows := [][]string{append(append([]string{"rank"}, keys...), "comm wait", "msgs", "bytes")}
	for r, t := range rep.Phases {
		m, st := rep.Measured[r], rep.Stats[r]
		row := []string{strconv.Itoa(r)}
		for _, k := range keys {
			row = append(row, fmt.Sprintf("%.3f|%.4f", t[k], m.Phases[k]))
		}
		rows = append(rows, append(row, fmt.Sprintf("%.4f", m.CommWall), strconv.FormatInt(st.MsgsSent, 10), strconv.FormatInt(st.BytesSent, 10)))
	}
	width := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			width[c] = max(width[c], len(cell))
		}
	}
	fmt.Fprintln(w, "  per rank (each phase virtual s|measured s; measured comm wait s; messages and bytes sent):")
	for _, row := range rows {
		fmt.Fprint(w, "  ")
		for c, cell := range row {
			fmt.Fprintf(w, "  %*s", width[c], cell)
		}
		fmt.Fprintln(w)
	}
}
