// Command chaosnode runs ONE rank of a genuinely multi-process CHAOS
// computation: each OS process owns one simulated processor, and all
// communication — schedule construction, gathers, scatters, reductions —
// travels over TCP connections between the processes (the message-passing-
// over-RPC deployment the reproduction substitutes for MPI).
//
// Start n processes, one per rank:
//
//	chaosnode -rank 0 -addrs 127.0.0.1:9310,127.0.0.1:9311 &
//	chaosnode -rank 1 -addrs 127.0.0.1:9310,127.0.0.1:9311 &
//
// By default every process runs the Figure 1 irregular loop through the
// full CHAOS pipeline (block distribution, inspector with stamped hash
// table, merged schedule, gather/compute/scatter-add executor) and
// validates its owned section against the sequential loop. With -app
// charmm or -app dsmc the processes instead run the mini-applications,
// including periodic checkpointing and restart:
//
//	chaosnode -rank R -addrs ... -app dsmc -ckpt-dir /tmp/ck -ckpt-every 4
//	chaosnode -rank R -addrs ... -app dsmc -ckpt-dir /tmp/ck -resume latest
//
// The restart may use a different number of processes than the run that
// wrote the checkpoint (elastic restart); a rank killed mid-run surfaces
// as a PeerFailure on the survivors, which then restart from the last
// sealed checkpoint. Rank 0 prints the global outcome.
//
// -fault-plan injects a seeded, deterministic fault schedule (delays,
// reorders, duplicates, drop-then-retry, rank kills) underneath the TCP
// transport. Every rank must be started with the identical plan string, as
// both ends of a link derive the fault schedule from the shared seed:
//
//	chaosnode -rank R -addrs ... -fault-plan "seed=7,dup=0.05,reorder=0.1"
//
// SIGINT or SIGTERM closes the transport before exiting, so peer ranks
// observe a clean connection teardown (and fail fast with a PeerFailure)
// instead of hanging on a vanished process.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster/apps"
	"repro/internal/comm"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

func main() {
	rank := flag.Int("rank", -1, "this process's rank")
	addrList := flag.String("addrs", "", "comma-separated listen addresses, one per rank")
	app := flag.String("app", "fig1", "computation: fig1 (Figure 1 loop), charmm, dsmc")
	elems := flag.Int("elems", 4000, "fig1 data array length / charmm atom count / dsmc molecule count")
	iters := flag.Int("iters", 12000, "irregular loop iterations (fig1)")
	steps := flag.Int("steps", 12, "time steps (charmm, dsmc)")
	timeout := flag.Duration("timeout", 30*time.Second, "mesh connection timeout")
	ckptDir := flag.String("ckpt-dir", "", "directory for periodic checkpoints (charmm, dsmc)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every N steps (0 = never)")
	resume := flag.String("resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	crashStep := flag.Int("crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	crashRank := flag.Int("crash-rank", 0, "rank that crashes at -crash-step")
	faultPlan := flag.String("fault-plan", "",
		`deterministic fault plan, e.g. "seed=7,drop=0.01,retry=3:2e-5,dup=0.05,reorder=0.1,kill=1@200"; every rank must be started with the same plan`)
	flag.Parse()

	addrs, err := parseAddrs(*addrList, *rank)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosnode:", err)
		os.Exit(2)
	}
	n := len(addrs)

	spec := apps.Spec{
		App: *app, Elems: *elems, Iters: *iters, Steps: *steps,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
		CrashStep: *crashStep, CrashRank: *crashRank,
	}
	if spec.ResumeFrom, err = checkpoint.ResolveResume(*resume, *ckptDir); err != nil {
		fmt.Fprintln(os.Stderr, "chaosnode:", err)
		os.Exit(2)
	}
	if *crashRank >= n {
		fmt.Fprintf(os.Stderr, "chaosnode: -crash-rank %d is not one of the %d ranks\n", *crashRank, n)
		os.Exit(2)
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chaosnode:", err)
		os.Exit(2)
	}

	var tr comm.Transport
	tr, err = comm.NewTCPEndpoint(*rank, addrs, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosnode:", err)
		os.Exit(1)
	}
	if *faultPlan != "" {
		plan, err := fault.Parse(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaosnode:", err)
			os.Exit(2)
		}
		// All processes must be given the same plan string: both ends of a
		// link derive the fault schedule from the shared seed.
		tr = fault.Wrap(tr, n, plan)
	}
	defer tr.Close()

	// On SIGINT/SIGTERM, close the transport first: pending frames are
	// flushed (sends are synchronous, so nothing is buffered past a write)
	// and the connection teardown poisons peer mailboxes, turning a silent
	// disappearance into an immediate PeerFailure on the survivors.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "chaosnode: rank %d caught %v: closing transport\n", *rank, s)
		_ = tr.Close() // exiting anyway; the teardown itself is the flush
		os.Exit(1)
	}()

	// A peer process crashing (or being killed) poisons our mailboxes and
	// surfaces as a PeerFailure panic out of RunRank. Exit with a clear
	// message instead of a stack trace — survivors are expected to restart
	// from the last sealed checkpoint.
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(comm.PeerFailure); ok {
				fmt.Fprintf(os.Stderr,
					"chaosnode: rank %d aborted: a peer rank failed; restart from the last sealed checkpoint\n", *rank)
				_ = tr.Close() // exiting anyway; peers are already poisoned
				os.Exit(3)
			}
			panic(e)
		}
	}()

	var res apps.Result
	clock, stats := comm.RunRank(*rank, n, costmodel.IPSC860(), tr, func(p *comm.Proc) {
		res = apps.Run(p, spec)
		if p.Rank() == 0 {
			switch spec.App {
			case "fig1":
				fmt.Printf("chaosnode: %d ranks (one OS process each), %d elems, %d iters\n",
					n, spec.Elems, spec.Iters)
				fmt.Printf("chaosnode: global max |error| vs sequential loop = %.2e\n", res.MaxErr)
				if res.MaxErr > 1e-9 {
					fmt.Println("chaosnode: RESULT MISMATCH")
				} else {
					fmt.Println("chaosnode: OK")
				}
			case "charmm":
				fmt.Printf("chaosnode: charmm %d atoms, %d steps: checksum %.9f\n",
					spec.Elems, spec.Steps, res.Checksum)
			case "dsmc":
				fmt.Printf("chaosnode: dsmc %d molecules, %d steps: checksum %.9f\n",
					spec.Elems, spec.Steps, res.Checksum)
			}
		}
	})
	fmt.Printf("chaosnode: rank %d done: virtual %.4fs, sent %d msgs / %d bytes\n",
		*rank, clock, stats.MsgsSent, stats.BytesSent)
	if spec.App == "fig1" && res.MaxErr > 1e-9 {
		os.Exit(1)
	}
}

// parseAddrs validates the -rank/-addrs pair up front: the rank must index
// the address list, and the addresses must be non-empty and pairwise
// distinct (two ranks sharing an address could never form a mesh).
func parseAddrs(addrList string, rank int) ([]string, error) {
	if addrList == "" {
		return nil, fmt.Errorf("need -rank in range and -addrs host:port,host:port,...")
	}
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
