// Package fault provides a seeded, deterministic fault-injecting decorator
// for comm.Transport. It models an unreliable wire — messages can be
// delayed, reordered, duplicated, dropped-then-retried, or cut off entirely
// — underneath a reliability sublayer that restores the Transport contract
// (per-link FIFO, exactly-once delivery, tag matching), so the CHAOS runtime
// above keeps computing correct answers while every misbehaviour path is
// exercised.
//
// Determinism is the point: every fault decision is a pure function of
// (plan seed, from, to, per-link sequence number), never of wall-clock time
// or goroutine interleaving. Faults fire on message counts and perturb
// virtual time only, so a run with the same seed and the same FaultPlan
// replays the exact same fault trace — asserted by tests, and the property
// that makes fault-injected CI failures reproducible on a laptop.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// LinkFaults configures the per-message misbehaviour of one directed link.
// All probabilities are in [0, 1]; zero values disable the fault.
type LinkFaults struct {
	// DropProb is the probability that one transmission attempt of a
	// message is dropped. A dropped attempt is retried after RetryDelay
	// virtual seconds; after RetryBudget consecutive drops of the same
	// message the link is declared dead (cut).
	DropProb float64
	// retryBudget is the maximum number of dropped attempts per message
	// before the link is cut. Zero means DefaultRetryBudget.
	retryBudget int
	// RetryDelay is the virtual-seconds penalty added to a message's
	// arrival time per dropped attempt (a modeled retransmission timeout).
	RetryDelay float64
	// DupProb is the probability a message is transmitted twice. The
	// receiver-side reassembly layer discards the duplicate.
	DupProb float64
	// ReorderProb is the probability a message is held back and emitted
	// after the next message on the same link (an adjacent swap on the
	// wire). Reassembly restores delivery order.
	ReorderProb float64
	// DelayProb is the probability a message suffers extra virtual
	// latency, uniform in [0, MaxDelay).
	DelayProb float64
	// MaxDelay bounds the extra virtual latency in seconds.
	MaxDelay float64
}

// defaultRetryBudget is the per-message retry budget when
// LinkFaults.RetryBudget is zero.
const defaultRetryBudget = 3

// KillSpec schedules the hard kill of one rank: once the victim's
// cumulative send count reaches AfterSends (when > 0), or one of its sends
// departs at virtual time >= AfterVirtual (when > 0), the send is swallowed,
// the victim's inbound links are poisoned, and the victim panics
// comm.PeerFailure — the same failure shape as a crashed process.
type KillSpec struct {
	Rank         int
	AfterSends   int
	afterVirtual float64
}

// Plan is a reproducible fault schedule: a seed, default per-link faults,
// optional per-link overrides, and rank kill points.
type Plan struct {
	Seed uint64
	// Link is the fault configuration applied to every link without an
	// override in Links.
	Link LinkFaults
	// links overrides Link for specific directed links, keyed by
	// [2]int{from, to}.
	links map[[2]int]LinkFaults
	// Kills lists rank hard-kill points.
	Kills []KillSpec
}

// faultsFor returns the fault configuration of link (from, to).
func (pl *Plan) faultsFor(from, to int) LinkFaults {
	if lf, ok := pl.links[[2]int{from, to}]; ok {
		return lf
	}
	return pl.Link
}

// budget returns the effective retry budget.
func (lf LinkFaults) budget() int {
	if lf.retryBudget > 0 {
		return lf.retryBudget
	}
	return defaultRetryBudget
}

// Decision salts: each fault type draws from an independent deterministic
// stream for the same (link, seq).
const (
	saltDrop    = 0x01
	saltDup     = 0x02
	saltReorder = 0x03
	saltDelay   = 0x04
	saltDelayU  = 0x05
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rnd returns a uniform float64 in [0, 1) that is a pure function of the
// plan seed, the link, the per-link sequence number, and a salt (plus an
// attempt counter for repeated draws like consecutive drop attempts).
func (pl *Plan) rnd(from, to int, seq uint64, salt, attempt uint64) float64 {
	x := splitmix64(pl.Seed ^ splitmix64(uint64(from)+1))
	x = splitmix64(x ^ splitmix64(uint64(to)+1)<<1)
	x = splitmix64(x ^ seq)
	x = splitmix64(x ^ salt<<32 ^ attempt)
	return float64(x>>11) / (1 << 53)
}

// Parse decodes the compact textual plan form used by command-line flags:
//
//	seed=42,drop=0.01,retry=3:2e-5,dup=0.02,reorder=0.05,delay=0.1:1e-5,kill=1@200,killv=2@0.5
//
// Fields (all optional, comma-separated):
//
//	seed=N        PRNG seed (default 1)
//	drop=P        per-attempt drop probability
//	retry=N:D     retry budget N (0: DefaultRetryBudget) and per-retry virtual delay D seconds
//	dup=P         duplicate probability
//	reorder=P     adjacent-swap probability
//	delay=P:MAX   delay probability and maximum virtual delay in seconds
//	kill=R@N      hard-kill rank R after its N-th send (N >= 1)
//	killv=R@T     hard-kill rank R at virtual send time >= T seconds (T > 0)
//
// Probabilities lie in [0, 1], durations are finite and not negative, and
// ranks and budgets are not negative; anything else is an error, so every
// plan Parse accepts is one String renders back to an equal plan.
func Parse(s string) (*Plan, error) {
	pl := &Plan{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return pl, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("fault: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			pl.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drop":
			pl.Link.DropProb, err = parseProb(val)
		case "dup":
			pl.Link.DupProb, err = parseProb(val)
		case "reorder":
			pl.Link.ReorderProb, err = parseProb(val)
		case "retry":
			n, d, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("fault: retry wants N:D, got %q", val)
			}
			if pl.Link.retryBudget, err = parseCount(n, 0); err == nil {
				pl.Link.RetryDelay, err = parseSeconds(d)
			}
		case "delay":
			p, mx, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("fault: delay wants P:MAX, got %q", val)
			}
			if pl.Link.DelayProb, err = parseProb(p); err == nil {
				pl.Link.MaxDelay, err = parseSeconds(mx)
			}
		case "kill", "killv":
			r, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: %s wants R@N, got %q", key, val)
			}
			var k KillSpec
			if k.Rank, err = parseCount(r, 0); err != nil {
				break
			}
			if key == "kill" {
				k.AfterSends, err = parseCount(at, 1)
			} else {
				k.afterVirtual, err = parseSeconds(at)
				if err == nil && k.afterVirtual == 0 {
					err = fmt.Errorf("kill time must be > 0")
				}
			}
			pl.Kills = append(pl.Kills, k)
		default:
			return nil, fmt.Errorf("fault: unknown field %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: field %q: %w", field, err)
		}
	}
	return pl, nil
}

// parseProb parses a probability and validates its range.
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also NaN
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// parseSeconds parses a virtual duration: finite and not negative.
func parseSeconds(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= math.MaxFloat64) { // also NaN and +Inf
		return 0, fmt.Errorf("duration %v is not a finite value >= 0", v)
	}
	return v, nil
}

// parseCount parses an integer that must be at least lo.
func parseCount(s string, lo int) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < lo {
		return 0, fmt.Errorf("%d is below %d", n, lo)
	}
	return n, nil
}

// String renders the plan in the form Parse accepts (per-link overrides,
// which have no textual form, are omitted). Fields at their zero value are
// omitted too; the retry budget is rendered as stored, 0 for the default.
func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", pl.Seed)
	lf := pl.Link
	if lf.DropProb > 0 {
		fmt.Fprintf(&b, ",drop=%g", lf.DropProb)
	}
	if lf.retryBudget > 0 || lf.RetryDelay > 0 {
		fmt.Fprintf(&b, ",retry=%d:%g", lf.retryBudget, lf.RetryDelay)
	}
	if lf.DupProb > 0 {
		fmt.Fprintf(&b, ",dup=%g", lf.DupProb)
	}
	if lf.ReorderProb > 0 {
		fmt.Fprintf(&b, ",reorder=%g", lf.ReorderProb)
	}
	if lf.DelayProb > 0 || lf.MaxDelay > 0 {
		fmt.Fprintf(&b, ",delay=%g:%g", lf.DelayProb, lf.MaxDelay)
	}
	for _, k := range pl.Kills {
		if k.AfterSends > 0 {
			fmt.Fprintf(&b, ",kill=%d@%d", k.Rank, k.AfterSends)
		}
		if k.afterVirtual > 0 {
			fmt.Fprintf(&b, ",killv=%d@%g", k.Rank, k.afterVirtual)
		}
	}
	return b.String()
}

// Event is one fired fault, recorded for the reproducibility trace.
type Event struct {
	From, to int
	seq      uint64  // per-link message sequence number the fault fired on
	Action   string  // "drop", "dup", "reorder", "delay", "cut", "kill"
	n        int     // drop: number of dropped attempts; kill: send count
	delay    float64 // extra virtual seconds added to the arrival time
}

// String renders one trace line.
func (e Event) String() string {
	return fmt.Sprintf("%d->%d #%d %s n=%d delay=%g", e.From, e.to, e.seq, e.Action, e.n, e.delay)
}

// sortEvents orders a trace canonically: by link, then sequence number,
// then action. Per-link decisions are pure functions of the seed, so the
// sorted trace is identical across runs regardless of rank interleaving.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.Action < b.Action
	})
}
