package workload

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/comm/fault"
	"repro/internal/costmodel"
)

// oracleSeed is the seed of every run of the oracle and of the ledger.
const oracleSeed = 1994

// cellKey names a run: a row ("workload/variant") on a column at n ranks,
// at the short size or, for the ledger, at full size. A recovery run writes
// checkpoints under root (with kill, rank 1 dies after the first) or, with
// from > 0, restores what the writing run on from ranks left (source).
type cellKey struct {
	row         string
	col         commtest.Transport
	n           int
	full        bool
	root        string
	write, kill bool
	from        int
}

type cell struct {
	commtest.Outcome
	answers []any // every rank's
}

// cells and refs share each run and each reference among the tests of a
// binary: the oracle and the tests that slice it.
var (
	cells commtest.Memo[cellKey, *cell]
	refs  commtest.Memo[string, func([]any) error]
)

// find returns the workload of row "name/variant", or of name, and the
// variant.
func find(row string) (*Workload, string) {
	name, v, _ := strings.Cut(row, "/")
	for i := range Workloads {
		if w := &Workloads[i]; w.Name == name && (v == "" || slices.Contains(w.Variants, v)) {
			return w, v
		}
	}
	panic("workload: no row " + row)
}

// run runs k on first use; a rank's panic is the run's error.
func (k cellKey) run() (*cell, error) {
	return cells.Get(k, func() (c *cell, err error) {
		defer func() {
			if e := recover(); e != nil {
				err = fmt.Errorf("%v", e)
			}
		}()
		w, v := find(k.row)
		in := w.Prepare(v, oracleSeed, !k.full)
		var r checkpoint.Recovery
		var kills []fault.KillSpec
		switch {
		case k.from > 0:
			src := k.source()
			if _, err := src.run(); err != nil && !k.kill {
				return nil, fmt.Errorf("the writer: %v", err)
			}
			r.ResumeFrom = checkpoint.StepDir(src.dir(), int64(in.Every))
			if dir, ok := checkpoint.Latest(src.dir()); k.kill && ok {
				r.ResumeFrom = dir
			}
		case k.write:
			r.CheckpointEvery, r.CheckpointDir = in.Every, k.dir()
			if k.kill && k.col != commtest.Fault {
				r.CrashStep, r.CrashRank = in.Every+1, 1
			} else if k.kill {
				// Rank 1 dies halfway through the sends a restore on as
				// many ranks makes, counted back from the mem writer's last.
				resume := cellKey{row: k.row, col: commtest.Mem, n: k.n, root: k.root, from: k.n}
				c, err := resume.run()
				if err != nil {
					return nil, err
				}
				wr, _ := resume.source().run()
				kills = []fault.KillSpec{{Rank: 1, AfterSends: int(wr.Stats[1].MsgsSent - c.Stats[1].MsgsSent/2)}}
			}
		}
		c = &cell{answers: make([]any, k.n)}
		c.Outcome, err = commtest.Try(k.col, k.n, costmodel.IPSC860(), func(p *comm.Proc) { c.answers[p.Rank()] = in.Body(p, r) }, kills...)
		return c, err
	})
}

// plain is the uninterrupted mem run of k's row on k.n ranks; source is the
// writing run whose checkpoint the restore k restores.
func (k cellKey) plain() cellKey { return cellKey{row: k.row, col: commtest.Mem, n: k.n} }
func (k cellKey) source() cellKey {
	return cellKey{row: k.row, col: k.col, n: k.from, root: k.root, write: true, kill: k.kill}
}

// dir is the checkpoint base directory of a writing run.
func (k cellKey) dir() string { return filepath.Join(k.root, k.row, fmt.Sprint(k.col, k.n, k.kill)) }

func (k cellKey) get(t *testing.T) *cell {
	t.Helper()
	commtest.Skip(t, k.col)
	c, err := k.run()
	if err != nil {
		t.Fatalf("%s over %v on %d ranks: %v", k.row, k.col, k.n, err)
	}
	return c
}

// prefetch runs keys several at a time — most runs wait on messages or on
// the wire, not on the CPU — except those on a runner column, which times
// its ranks and runs in its cells.
func prefetch(keys []cellKey) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, k := range keys {
		if commtest.Skipped(k.col) || slices.Contains(commtest.Runners, k.col) {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			k.run()
			<-sem
		}()
	}
	wg.Wait()
}

// Outcome returns the short run of row on col at n ranks.
func Outcome(t *testing.T, row string, col commtest.Transport, n int) commtest.Outcome {
	return cellKey{row: row, col: col, n: n}.get(t).Outcome
}

// timeline is the column whose virtual timeline col reproduces: the fault
// plan's drops and delays charge virtual time, so the fault columns answer
// to fault, and every other column to mem.
func timeline(col commtest.Transport) commtest.Transport {
	if col == commtest.Fault || col == commtest.FaultTCP {
		return commtest.Fault
	}
	return commtest.Mem
}

// Check runs the named rows (nil: every row) on each column at each rank
// count (nil: 1 to 4), one parallel subtest per column and in it one subtest
// workload/variant/pN per cell, and holds every cell to
//   - its row's reference;
//   - its row's mem cell: messages and bytes, and on the fault column a
//     virtual time no shorter;
//   - its row's timeline cell: every rank's virtual clock, statistics and
//     answer, bit for bit;
//   - on a runner column, a positive measured wall and row phases on every
//     rank.
func Check(t *testing.T, rows []string, ranks []int, cols ...commtest.Transport) {
	if ranks == nil {
		ranks = []int{1, 2, 3, 4}
	}
	for _, col := range cols {
		t.Run(col.String(), func(t *testing.T) {
			t.Parallel()
			var keys []cellKey
			for _, row := range rowsOf(rows) {
				for _, n := range ranks {
					keys = append(keys, cellKey{row: row, col: col, n: n})
				}
			}
			prefetch(keys)
			for _, k := range keys {
				t.Run(fmt.Sprintf("%s/p%d", k.row, k.n), k.check)
			}
		})
	}
}

// rowsOf lists the named rows (nil: every row) in the oracle's order.
func rowsOf(rows []string) []string {
	var all []string
	for _, w := range Workloads {
		for _, v := range w.Variants {
			if row := w.Name + "/" + v; rows == nil || slices.Contains(rows, row) {
				all = append(all, row)
			}
		}
	}
	return all
}

// reference checks a short run's answers against its row's reference.
func (k cellKey) reference(t *testing.T, answers []any) {
	ref, _ := refs.Get(k.row, func() (func([]any) error, error) {
		w, v := find(k.row)
		return w.Prepare(v, oracleSeed, true).Reference(), nil
	})
	if err := ref(answers); err != nil {
		t.Errorf("the reference: %v", err)
	}
}

func (k cellKey) check(t *testing.T) {
	got := k.get(t)
	w, _ := find(k.row)
	k.reference(t, got.answers)
	mem := k.plain().get(t)
	tl := cellKey{row: k.row, col: timeline(k.col), n: k.n}.get(t)
	if got.TotalMsgsSent() != mem.TotalMsgsSent() || got.TotalBytesSent() != mem.TotalBytesSent() {
		t.Errorf("%d messages, %d bytes; mem sends %d, %d", got.TotalMsgsSent(), got.TotalBytesSent(), mem.TotalMsgsSent(), mem.TotalBytesSent())
	}
	if k.col == commtest.Fault && got.MaxClock() < mem.MaxClock() {
		t.Errorf("virtual_s %v under faults, mem %v", got.MaxClock(), mem.MaxClock())
	}
	if !slices.Equal(got.Clocks, tl.Clocks) || !slices.Equal(got.Stats, tl.Stats) {
		t.Errorf("virtual clocks %v, stats %+v; %v has %v, %+v", got.Clocks, got.Stats, timeline(k.col), tl.Clocks, tl.Stats)
	}
	if !reflect.DeepEqual(got.answers, tl.answers) {
		t.Errorf("the answers differ from %v's", timeline(k.col))
	}
	for r, m := range got.Measured {
		if m.Wall <= 0 {
			t.Errorf("rank %d: measured wall %v", r, m.Wall)
		}
		for _, ph := range w.Phases {
			if m.Phases[ph] <= 0 {
				t.Errorf("rank %d: no measured %q phase (%v)", r, ph, m.Phases)
			}
		}
	}
}

// Resume restores the mem writer's checkpoint at step Every on P ranks
// (restores): every rank must end with the uninterrupted run's answer bit
// for bit, but for a CHARMM result's remap steps and list size.
func Resume(t *testing.T, rows []string, pairs [][2]int) {
	restores(t, "resume", rows, commtest.Mem, false, pairs, func(t *testing.T, k cellKey) {
		got, want := k.get(t), k.plain().get(t)
		for r := range got.answers {
			if !reflect.DeepEqual(continued(got.answers[r]), continued(want.answers[r])) {
				t.Errorf("rank %d's answer differs from the uninterrupted run's", r)
			}
		}
	})
}

// continued is what a restored rank must reproduce of its answer.
func continued(a any) any {
	if a, ok := a.(charmmAnswer); ok {
		return [2]any{a.Checksum, a.FinalState}
	}
	return a
}

// Elastic restores the mem writer's checkpoint at step Every on Q != P
// ranks: the answers must pass the row's reference and each of also, which
// is given them and those of the uninterrupted run on Q ranks.
func Elastic(t *testing.T, rows []string, pairs [][2]int, also ...func(t *testing.T, restored, fresh []any)) {
	restores(t, "elastic", rows, commtest.Mem, false, pairs, func(t *testing.T, k cellKey) {
		got := k.get(t)
		k.reference(t, got.answers)
		for _, f := range also {
			f(t, got.answers, k.plain().get(t).answers)
		}
	})
}

// Kill has rank 1 of a run on P ranks die after its first checkpoint: by a
// panic at the next step on mem and tcp, by the fault plan's kill on fault.
// The run must end in that failure, not in a hang, and its last sealed
// checkpoint, restored on Q ranks on the same column, pass the reference.
func Kill(t *testing.T, rows []string, pairs [][2]int, cols ...commtest.Transport) {
	for _, col := range cols {
		restores(t, "kill/"+col.String(), rows, col, true, pairs, func(t *testing.T, k cellKey) {
			want := map[bool]string{false: "injected crash", true: "aborted by a peer failure"}[col == commtest.Fault]
			if _, err := k.source().run(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("the run on %d ranks ended with %v, want %q", k.from, err, want)
			}
			k.reference(t, k.get(t).answers)
		})
	}
}

// roots holds each test's checkpoint root, which its checks share.
var roots commtest.Memo[*testing.T, string]

// restores is a recovery check (DESIGN.md, "The workload oracle"): in one
// parallel subtest name, check holds the restore on col, at the short size,
// of what a run of each named row (nil: every row) on P ranks left on Q
// ranks, for each pair {P, Q}, in subtests workload/variant/pPtoQ. A row
// with no checkpoint path is skipped.
func restores(t *testing.T, name string, rows []string, col commtest.Transport, kill bool, pairs [][2]int, check func(*testing.T, cellKey)) {
	root, _ := roots.Get(t, func() (string, error) { return t.TempDir(), nil })
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		var keys []cellKey
		for _, row := range rowsOf(rows) {
			if w, v := find(row); w.Prepare(v, oracleSeed, true).Every == 0 {
				t.Run(row, func(t *testing.T) { t.Skip("no checkpoint path") })
				continue
			}
			for _, pq := range pairs {
				keys = append(keys, cellKey{row: row, col: col, n: pq[1], root: root, kill: kill, from: pq[0]})
			}
		}
		prefetch(keys)
		for _, k := range keys {
			t.Run(fmt.Sprintf("%s/p%dto%d", k.row, k.from, k.n), func(t *testing.T) {
				commtest.Skip(t, col)
				check(t, k)
			})
		}
	})
}

//go:embed testdata/ledger.json
var ledgerJSON []byte

// ledgerRow is one workload's exact ledger: the deterministic outputs of its
// benchmark variant at full size on 2 ranks at oracleSeed, which no host-side
// optimisation may move.
type ledgerRow struct {
	Workload    string  `json:"workload"`
	VirtualS    float64 `json:"virtual_s"`
	VirtualBits string  `json:"virtual_bits"` // Float64bits of VirtualS, hex
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
	// Population is, for DSMC, the SHA-256 of the final molecule records of
	// all ranks, in id order, as little-endian Float64bits.
	Population string `json:"population_sha256,omitempty"`
}

// Ledger runs each named workload's ledger row, one subtest each, and
// compares it with testdata/ledger.json: virtual time bit for bit, messages,
// bytes and the population hash. When the virtual timeline or the physics
// is meant to change, replace the file's row with the one the failure
// prints.
func Ledger(t *testing.T, names ...string) {
	var want []ledgerRow
	if err := json.Unmarshal(ledgerJSON, &want); err != nil {
		t.Fatalf("testdata/ledger.json: %v", err)
	}
	keys := make([]cellKey, len(names))
	for i, name := range names {
		w, _ := find(name)
		keys[i] = cellKey{row: name + "/" + w.Variants[0], col: commtest.Mem, n: 2, full: true}
	}
	prefetch(keys)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			c := keys[i].get(t)
			v := c.MaxClock()
			got := ledgerRow{name, v, fmt.Sprintf("0x%016x", math.Float64bits(v)), c.TotalMsgsSent(), c.TotalBytesSent(), ""}
			if _, ok := c.answers[0].([]float64); ok {
				var b []byte
				for _, x := range population(c.answers) {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
				}
				got.Population = fmt.Sprintf("%x", sha256.Sum256(b))
			}
			if !slices.Contains(want, got) {
				buf, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("the run gives\n%s\nwhich testdata/ledger.json does not hold (%+v)", buf, want)
			}
		})
	}
}
