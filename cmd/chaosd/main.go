// Command chaosd runs one rank of a multi-process CHAOS computation per OS
// process, over TCP:
//
//	chaosd rank -rank 0 -addrs 127.0.0.1:9310,127.0.0.1:9311
//
// Start one process per -addrs entry, each with its own -rank and otherwise
// identical flags (-fault-plan included). The default app validates the
// Figure 1 loop against the sequential one; charmm and dsmc take -ckpt-dir /
// -ckpt-every / -resume for (elastic) restart. Rank 0 prints the global
// outcome. SIGINT or SIGTERM closes the transport first, so survivors fail
// fast (exit 3), never hang.
//
// Exit status: 0 on success, 2 on bad input (one "chaosd:" line plus
// usage), 3 when a peer rank failed or the fault plan killed this rank, 1 on
// any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitError is an error with its own exit status: 2 for bad input (the
// usage follows the message), 3 for a failed or killed rank.
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
	switch {
	case name == "-h" || name == "-help" || name == "--help" || name == "help":
		usage(stderr)
		return 0
	case name == "":
		fmt.Fprintln(stderr, "chaosd: missing role")
		usage(stderr)
		return 2
	case name != "rank":
		fmt.Fprintf(stderr, "chaosd: unknown role %q\n", name)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("chaosd rank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := rank(fs)
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
	fmt.Fprintln(w, `usage: chaosd rank [flags]

roles:
  rank   run one rank of a multi-process computation over TCP

run "chaosd rank -h" for its flags`)
}

// appFlags declares the application flags of rank: the spec's fields and
// the -fault-plan string.
func appFlags(fs *flag.FlagSet) (*apps.Spec, *string) {
	spec := &apps.Spec{}
	fs.StringVar(&spec.App, "app", "fig1", "computation: fig1 (Figure 1 loop), charmm, dsmc")
	fs.IntVar(&spec.Elems, "elems", 0, "fig1 array length / charmm atoms / dsmc molecules (0 = 4000)")
	fs.IntVar(&spec.Iters, "iters", 0, "fig1 irregular-loop iterations (0 = 12000)")
	fs.IntVar(&spec.Steps, "steps", 0, "charmm/dsmc time steps (0 = 12)")
	fs.IntVar(&spec.CheckpointEvery, "ckpt-every", 0, "checkpoint every N steps (0 = never)")
	faultPlan := fs.String("fault-plan", "",
		`deterministic fault plan, e.g. "seed=7,dup=0.05,kill=1@200"; a kill spec takes down its rank's process`)
	return spec, faultPlan
}

// rank runs one rank of a multi-process computation, one OS process per
// rank over TCP.
func rank(fs *flag.FlagSet) func(io.Writer) error {
	spec, faultPlan := appFlags(fs)
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
		n, app := len(addrs), *spec
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
		plan, err := fault.Parse(*faultPlan)
		if err != nil {
			return badInput(err)
		}

		ep, err := comm.NewTCPEndpoint(*self, addrs, *timeout)
		if err != nil {
			return err
		}
		var tr comm.Transport = ep
		var ft *fault.Transport
		if *faultPlan != "" {
			// Both ends of a link derive the fault schedule from the shared
			// seed, so every process must be given the same plan string.
			ft = fault.Wrap(ep, n, plan)
			tr = ft
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
		// and surfaces as a PeerFailure panic out of RunRank; so does a
		// fault-plan kill of this rank, which the plan's trace tells apart.
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(comm.PeerFailure); !ok {
					panic(e)
				}
				why := "a peer rank failed"
				if ft != nil && slices.ContainsFunc(ft.Trace(), func(e fault.Event) bool {
					return e.Action == "kill" && e.From == *self
				}) {
					why = "the fault plan killed it"
				}
				err = exitError{fmt.Errorf("rank %d aborted: %s; restart from the last sealed checkpoint", *self, why), 3}
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
