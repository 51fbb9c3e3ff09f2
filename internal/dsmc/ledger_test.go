package dsmc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	// Population is the SHA-256 of the final molecule records of all ranks,
	// in id order, as little-endian Float64bits.
	Population string `json:"population_sha256"`
}

// TestLedger runs the benchmark configurations of dsmc-regular (48x48 cells,
// 18432 molecules, 60 steps, regular mover) and dsmc-finegrain (16x16 cells,
// 1024 molecules, 1500 steps, light mover) on 2 ranks at seed 1994, and
// compares the virtual time bit for bit, the message count, the byte count
// and a hash of the final population against testdata/ledger.json. Rewrite
// the file with `go test ./internal/dsmc -run TestLedger -update` only when
// the virtual timeline or the physics is meant to change. The "short"
// subtest holds chaosbench's -short sizes of both workloads to Reference bit
// for bit.
func TestLedger(t *testing.T) {
	const seed = 1994
	t.Run("short", func(t *testing.T) {
		regular := Default2D(8)
		regular.NMols, regular.Steps, regular.Mover, regular.Seed = 256, 5, MoverRegular, seed
		finegrain := Default2D(16)
		finegrain.NMols, finegrain.Steps, finegrain.Mover, finegrain.Seed = 128, 20, MoverLight, seed
		for _, r := range []struct {
			name string
			cfg  Config
		}{{"dsmc-regular", regular}, {"dsmc-finegrain", finegrain}} {
			perRank := make([][]float64, 2)
			comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) { perRank[p.Rank()] = RunKeepMols(p, r.cfg) })
			got := SortByID(append(perRank[0], perRank[1]...))
			want, _ := Reference(r.cfg)
			if len(got) != len(want) {
				t.Fatalf("%s: %d molecule values, Reference has %d", r.name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: molecule value %d is %v, Reference %v", r.name, i, got[i], want[i])
				}
			}
		}
	})
	regular := Default2D(48)
	regular.NMols, regular.Steps, regular.Mover, regular.Seed = 18432, 60, MoverRegular, seed
	finegrain := Default2D(16)
	finegrain.NMols, finegrain.Steps, finegrain.Mover, finegrain.Seed = 1024, 1500, MoverLight, seed
	runs := []struct {
		name string
		cfg  Config
	}{
		{"dsmc-regular", regular},
		{"dsmc-finegrain", finegrain},
	}
	var got []ledgerRow
	for _, r := range runs {
		perRank := make([][]float64, 2)
		rep := comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) {
			perRank[p.Rank()] = RunKeepMols(p, r.cfg)
		})
		v := rep.MaxClock()
		got = append(got, ledgerRow{
			Workload:    r.name,
			VirtualS:    v,
			VirtualBits: fmt.Sprintf("0x%016x", math.Float64bits(v)),
			Msgs:        rep.TotalMsgsSent(),
			Bytes:       rep.TotalBytesSent(),
			Population:  populationHash(SortByID(append(perRank[0], perRank[1]...))),
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
		if g.Population != w.Population {
			t.Errorf("%s: final population hashes to %s, ledger has %s", g.Workload, g.Population, w.Population)
		}
	}
}

// populationHash is the hex SHA-256 of mols' Float64bits, little-endian.
func populationHash(mols []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range mols {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
