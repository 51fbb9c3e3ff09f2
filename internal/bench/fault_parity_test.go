package bench

import (
	"bytes"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/fault"
)

// quickTablesJSON renders every table of the quick scale as the
// newline-delimited JSON the CI artifact uses.
func quickTablesJSON(t *testing.T, sc Scale) []byte {
	t.Helper()
	return tablesJSON(t, sc.Name, AllTables(sc))
}

// tablesJSON renders tables exactly as `cmd/tables -json` prints them.
func tablesJSON(t *testing.T, scale string, tabs []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tabs {
		if err := tb.WriteJSON(&buf, scale); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// firstDiffLine locates the first differing line of two NDJSON blobs.
func firstDiffLine(a, b []byte) (int, string, string) {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1, string(la[i]), string(lb[i])
		}
	}
	return len(la), "", ""
}

// TestTablesGoldenParityUnderFaults regenerates the full Tables 1-7 quick
// JSON three times — clean in-memory, fault-injected in-memory, and
// fault-injected TCP — with a duplicate+reorder plan active, and demands
// byte-identical output. Wire-order faults must be invisible to every
// virtual-time metric the paper reports; a single differing cell means the
// fault layer leaked into delivery order or timing.
func TestTablesGoldenParityUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("three full quick-scale table passes")
	}
	const planStr = "seed=31,dup=0.1,reorder=0.15"
	plan, err := fault.Parse(planStr)
	if err != nil {
		t.Fatal(err)
	}

	want := quickTablesJSON(t, Quick())

	faultMem := Quick()
	faultMem.Transport = func(n int) (comm.Transport, error) {
		return fault.Wrap(comm.NewMemTransport(n), n, plan), nil
	}
	if got := quickTablesJSON(t, faultMem); !bytes.Equal(got, want) {
		line, g, w := firstDiffLine(got, want)
		t.Errorf("fault-injected mem tables differ from clean tables at line %d:\n  fault: %s\n  clean: %s", line, g, w)
	}

	faultTCP := Quick()
	faultTCP.Transport = func(n int) (comm.Transport, error) {
		mesh, err := comm.NewTCPMesh(n)
		if err != nil {
			return nil, err
		}
		return fault.Wrap(mesh, n, plan), nil
	}
	if got := quickTablesJSON(t, faultTCP); !bytes.Equal(got, want) {
		line, g, w := firstDiffLine(got, want)
		t.Errorf("fault-injected TCP tables differ from clean tables at line %d:\n  fault: %s\n  clean: %s", line, g, w)
	}
}
