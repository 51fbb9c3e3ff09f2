package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// usageNames reads the -table alternatives back out of the usage line.
func usageNames(t *testing.T) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	_, after, ok := strings.Cut(stderr.String(), "[-table ")
	list, _, ok2 := strings.Cut(after, "]")
	if !ok || !ok2 {
		t.Fatalf("usage has no [-table ...] group:\n%s", stderr.String())
	}
	return strings.Split(list, "|")
}

// TestEveryUsageNameHasAGenerator: the usage string and the dispatch slice
// cannot drift apart, in either direction.
func TestEveryUsageNameHasAGenerator(t *testing.T) {
	names := usageNames(t)
	if len(names) != len(generators) {
		t.Errorf("usage lists %d tables %v, dispatch has %d", len(names), names, len(generators))
	}
	for i, name := range names {
		if i < len(generators) && (generators[i].name != name || generators[i].gen == nil) {
			t.Errorf("usage name %d %q resolves to %q", i, name, generators[i].name)
		}
	}
}

func TestBadInvocationsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // must appear on stderr
	}{
		{[]string{"-table", "inspector"}, `no table "inspector" (valid: 1, 2, 3, 4, 5, 6, 7, loopir, adapt)`},
		{[]string{"-table", "8"}, `no table "8"`},
		{[]string{"-quick", "-table", "loopir"}, "-table loopir runs at one fixed size: -quick does not apply"},
		{[]string{"-markdown"}, "flag provided but not defined"},
		{[]string{"-quick", "loopir"}, `unexpected argument "loopir"`},
		{[]string{"-loopir"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) || !strings.Contains(stderr.String(), "usage: tables") {
			t.Errorf("%v: stderr lacks %q or the usage:\n%s", c.args, c.want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: wrote to stdout:\n%s", c.args, stdout.String())
		}
	}
}

// TestTableLoopirJSONMatchesGolden: the selector reaches the same generator,
// scale label and encoder that internal/bench pins.
func TestTableLoopirJSONMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", "loopir_quick.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "loopir", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-table loopir -json differs from the pinned golden:\n%s", stdout.String())
	}
}
