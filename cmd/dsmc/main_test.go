package main

import (
	"bytes"
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
