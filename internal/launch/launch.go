// Package launch is the command line cmd/charmm and cmd/dsmc share: the
// common flags, the refusal of bad input before any rank starts (one
// "name: complaint" line, the usage, exit status 2), the modeled or measured
// run, and the common part of the report. A command adds its own flags to
// FS, maps the parsed values to its Config and prints its own report lines.
package launch

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Launcher holds the shared flags; the exported fields are valid after Parse.
type Launcher struct {
	FS          *flag.FlagSet
	Procs       int
	Adapt       string
	AdaptVerify bool
	CkptDir     string
	CkptEvery   int
	// Resume is the checkpoint directory to resume from ("latest" already
	// resolved), or empty.
	Resume               string
	CrashStep, CrashRank int

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
	fs.StringVar(&l.Adapt, "adapt", "", "remap trigger: static, periodic:N or policy (overrides -remap)")
	fs.BoolVar(&l.AdaptVerify, "adapt-verify", false, "cross-check policy decisions across ranks (panics on divergence)")
	fs.BoolVar(&l.trace, "trace", false, "print a virtual-time Gantt chart and phase summary")
	fs.StringVar(&l.CkptDir, "ckpt-dir", "", "directory for periodic checkpoints")
	fs.IntVar(&l.CkptEvery, "ckpt-every", 0, "checkpoint every N steps (0 = never)")
	fs.StringVar(&l.Resume, "resume", "", `resume from a checkpoint directory, or "latest" under -ckpt-dir`)
	fs.IntVar(&l.CrashStep, "crash-step", 0, "inject a rank panic at step N (crash-recovery demo)")
	fs.IntVar(&l.CrashRank, "crash-rank", 0, "rank that crashes at -crash-step")
	fs.BoolVar(&l.measure, "measure", false, "run in measured wall-clock mode (real phase timers alongside virtual time)")
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
	var err error
	switch {
	case l.FS.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", l.FS.Arg(0))
	case l.Procs < 1:
		err = fmt.Errorf("-procs must be at least 1, got %d", l.Procs)
	case l.CrashRank < 0 || l.CrashRank >= l.Procs:
		err = fmt.Errorf("-crash-rank %d is not one of the %d ranks", l.CrashRank, l.Procs)
	default:
		l.Resume, err = checkpoint.ResolveResume(l.Resume, l.CkptDir)
	}
	if err != nil {
		return l.Refuse(err), false
	}
	return 0, true
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
// -measure, profiled under -cpuprofile/-memprofile.
func (l *Launcher) Run(body func(p *comm.Proc)) *comm.Report {
	defer l.startProfiles()()
	if l.measure {
		return comm.RunMeasuredTransport(l.Procs, costmodel.IPSC860(), comm.NewMemTransport(l.Procs), l.measureOpts, body)
	}
	return comm.Run(l.Procs, costmodel.IPSC860(), body)
}

// Report prints the run: head (the command's title lines), the machine-level
// metrics, tail (the command's result lines), the phase table — the maximum
// over ranks of each phase, keys padded to keyWidth — then under -measure
// the per-rank table (rankTable), and under -trace the Gantt chart. rank
// returns one rank's phase times and spans.
func (l *Launcher) Report(w io.Writer, rep *comm.Report, head, tail string, keyWidth int, rank func(r int) (map[string]float64, []core.Span)) {
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

	phases := map[string]float64{}
	times := make([]map[string]float64, l.Procs)
	spans := make([][]core.Span, l.Procs)
	for r := range spans {
		times[r], spans[r] = rank(r)
		for k, v := range times[r] {
			if v > phases[k] {
				phases[k] = v
			}
		}
	}
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if l.measure {
		fmt.Fprintln(w, "  phase breakdown (max over ranks: virtual s | measured s):")
	} else {
		fmt.Fprintln(w, "  phase breakdown (max over ranks, virtual s):")
	}
	for _, k := range keys {
		fmt.Fprintf(w, "    %-*s %10.3f", keyWidth, k, phases[k])
		if l.measure {
			fmt.Fprintf(w, "  %10.4f", rep.MeasuredPhaseMax(k))
		}
		fmt.Fprintln(w)
	}
	if l.measure {
		rankTable(w, rep, keys, times)
	}

	if l.trace {
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Gantt(spans, 100))
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.RenderSummary(spans))
	}
}

// rankTable prints one row per rank of a measured run: each phase's virtual
// and measured seconds, the measured receive wait (Measured.CommWall) and
// the messages and bytes the rank sent. The maximum over ranks above hides
// which rank waits, and in which phase; this shows it.
func rankTable(w io.Writer, rep *comm.Report, keys []string, times []map[string]float64) {
	rows := [][]string{append(append([]string{"rank"}, keys...), "comm wait", "msgs", "bytes")}
	for r, t := range times {
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
