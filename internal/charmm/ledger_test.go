package charmm

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json from this build instead of comparing")

// ledgerRow is one workload's exact ledger: the deterministic outputs of a
// 2-rank run, which no host-side optimisation may move.
type ledgerRow struct {
	Workload    string  `json:"workload"`
	VirtualS    float64 `json:"virtual_s"`
	VirtualBits string  `json:"virtual_bits"` // Float64bits of VirtualS, hex
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
}

// TestLedger runs the benchmark configurations of kernel-remap (the Table 6
// compiled kernel, 8000 atoms, 24 iterations, a repartition every 6) and
// charmm-md (8000 atoms, 20 steps, a list rebuild every 5, RCB, merged
// schedules) on 2 ranks at seed 1994, and compares the virtual time bit for
// bit, the message count and the byte count against testdata/ledger.json.
// Rewrite the file with `go test ./internal/charmm -run TestLedger -update`
// only when the virtual timeline is meant to change. The "short" subtest
// holds chaosbench's -short sizes of both workloads to their oracles.
func TestLedger(t *testing.T) {
	const seed = 1994
	t.Run("short", func(t *testing.T) {
		md := ConfigForAtoms(300)
		md.Steps, md.NBEvery, md.Seed = 4, 2, seed
		md.Partitioner, md.Merged = "rcb", true
		_, want := Reference(md)
		checksumsWithin(t, "charmm-md", func(p *comm.Proc) float64 { return Run(p, md).Checksum }, want)

		// The kernel has no sequential twin; its 1-rank run is the oracle.
		kernel := KernelConfig{NAtoms: 300, Iters: 4, RemapEvery: 2, Seed: seed}
		comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) { want = RunKernelCompiled(p, kernel).Checksum })
		checksumsWithin(t, "kernel-remap", func(p *comm.Proc) float64 { return RunKernelCompiled(p, kernel).Checksum }, want)
	})
	md := ConfigForAtoms(8000)
	md.Steps, md.NBEvery, md.Seed = 20, 5, seed
	md.Partitioner, md.Merged = "rcb", true
	kernel := KernelConfig{NAtoms: 8000, Iters: 24, RemapEvery: 6, Seed: seed}
	runs := []struct {
		name string
		body func(p *comm.Proc)
	}{
		{"kernel-remap", func(p *comm.Proc) { RunKernelCompiled(p, kernel) }},
		{"charmm-md", func(p *comm.Proc) { Run(p, md) }},
	}
	var got []ledgerRow
	for _, r := range runs {
		rep := comm.Run(2, costmodel.IPSC860(), r.body)
		v := rep.MaxClock()
		got = append(got, ledgerRow{
			Workload:    r.name,
			VirtualS:    v,
			VirtualBits: formatBits(v),
			Msgs:        rep.TotalMsgsSent(),
			Bytes:       rep.TotalBytesSent(),
		})
	}
	path := filepath.Join("testdata", "ledger.json")
	if *updateLedger {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []ledgerRow
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d workloads, the test runs %d", path, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Workload != w.Workload || g.VirtualBits != w.VirtualBits || g.Msgs != w.Msgs || g.Bytes != w.Bytes {
			t.Errorf("%s: virtual_s %v (%s) / %d msgs / %d bytes, ledger has %s: %v (%s) / %d / %d",
				g.Workload, g.VirtualS, g.VirtualBits, g.Msgs, g.Bytes, w.Workload, w.VirtualS, w.VirtualBits, w.Msgs, w.Bytes)
		}
	}
}

// checksumsWithin runs body on 2 ranks and checks that every rank's checksum
// is within 1e-9 of want, relative.
func checksumsWithin(t *testing.T, name string, body func(p *comm.Proc) float64, want float64) {
	t.Helper()
	got := make([]float64, 2)
	comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) { got[p.Rank()] = body(p) })
	for r, g := range got {
		if !(math.Abs(g-want) <= 1e-9*math.Abs(want)) {
			t.Errorf("%s: rank %d checksum %.17g, oracle %.17g", name, r, g, want)
		}
	}
}

func formatBits(v float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(v)) }
