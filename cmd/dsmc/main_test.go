package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBadInputExitsWithOneLine: input the run cannot honour is refused
// before any rank starts — exit status 2, one "dsmc:" line and the usage on
// stderr, nothing on stdout, and no goroutine dump.
func TestBadInputExitsWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-1"},
		{"-mover", "bogus"},
		{"-part", "nonsense"},
		{"-adapt", "bogus"},
		{"-adapt", "periodic:0"},
		{"-nx", "0"},
		{"-resume", "latest"},
		{"-procs", "2", "-crash-rank", "7", "-crash-step", "2"},
		{"-crash-rank", "-1"},
		{"-steps", "2", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "dsmc: ") || strings.HasPrefix(first, "dsmc: dsmc:") {
			t.Errorf("%v: stderr starts %q, want one dsmc: line", args, first)
		}
		if !strings.Contains(rest, "-procs") {
			t.Errorf("%v: no usage after the complaint:\n%s", args, rest)
		}
		if strings.Contains(stderr.String(), "goroutine") || strings.Contains(stderr.String(), "panicked") {
			t.Errorf("%v: stderr carries a panic:\n%s", args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, stdout.String())
		}
	}
}

func TestSmallRunReports(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-procs", "2", "-nx", "8", "-ny", "8", "-mols", "200", "-steps", "3", "-mover", "regular"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "state checksum") {
		t.Errorf("no checksum line in:\n%s", stdout.String())
	}
}

// TestStdoutGolden: the report is byte-identical to what the binary printed
// before the launcher moved into internal/launch (testdata/*.golden were
// written by that binary; only the host-clock "(wall N.NNs)" field is
// masked).
func TestStdoutGolden(t *testing.T) {
	wall := regexp.MustCompile(`\(wall [0-9.]+s\)`)
	for name, args := range map[string][]string{
		"plain": {"-procs", "2", "-nx", "8", "-ny", "8", "-mols", "200", "-steps", "6", "-mover", "regular"},
		"trace": {"-procs", "3", "-nx", "24", "-ny", "4", "-mols", "600", "-steps", "14", "-slab", "0.4", "-part", "chain", "-adapt", "policy", "-trace"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", name, code, stderr.String())
		}
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := wall.ReplaceAll(stdout.Bytes(), []byte("(wall N.NNs)")); !bytes.Equal(got, want) {
			t.Errorf("%s: stdout differs from testdata/%s.golden:\n%s", name, name, got)
		}
	}
}
