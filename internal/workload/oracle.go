package workload

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/costmodel"
)

// oracleSeed is the seed of every run of the oracle and of the ledger.
const oracleSeed = 1994

// cellKey names a run: a row ("workload/variant") on a column at n ranks,
// at the short size or, for the ledger, at full size.
type cellKey struct {
	row  string
	col  commtest.Transport
	n    int
	full bool
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
		c = &cell{answers: make([]any, k.n)}
		c.Outcome, err = commtest.Try(k.col, k.n, costmodel.IPSC860(), func(p *comm.Proc) { c.answers[p.Rank()] = in.Body(p) })
		return c, err
	})
}

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
	return cellKey{row, col, n, false}.get(t).Outcome
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
			for _, w := range Workloads {
				for _, v := range w.Variants {
					if row := w.Name + "/" + v; rows == nil || slices.Contains(rows, row) {
						for _, n := range ranks {
							keys = append(keys, cellKey{row, col, n, false})
						}
					}
				}
			}
			prefetch(keys)
			for _, k := range keys {
				t.Run(fmt.Sprintf("%s/p%d", k.row, k.n), k.check)
			}
		})
	}
}

func (k cellKey) check(t *testing.T) {
	got := k.get(t)
	w, v := find(k.row)
	ref, _ := refs.Get(k.row, func() (func([]any) error, error) { return w.Prepare(v, oracleSeed, true).Reference(), nil })
	if err := ref(got.answers); err != nil {
		t.Errorf("the reference: %v", err)
	}
	mem := cellKey{k.row, commtest.Mem, k.n, false}.get(t)
	tl := cellKey{k.row, timeline(k.col), k.n, false}.get(t)
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
		keys[i] = cellKey{name + "/" + w.Variants[0], commtest.Mem, 2, true}
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
