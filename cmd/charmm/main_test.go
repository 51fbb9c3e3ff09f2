package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitsWithOneLine: input the run cannot honour is refused
// before any rank starts — exit status 2, one "charmm:" line and the usage on
// stderr, nothing on stdout, and no goroutine dump.
func TestBadInputExitsWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-1"},
		{"-part", "nonsense"},
		{"-adapt", "bogus"},
		{"-adapt", "periodic:0"},
		{"-atoms", "0"},
		{"-resume", "latest"},
		{"-compiled", "-resume", "somewhere"},
		{"-steps", "2", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "charmm: ") || strings.HasPrefix(first, "charmm: charmm:") {
			t.Errorf("%v: stderr starts %q, want one charmm: line", args, first)
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
	args := []string{"-procs", "2", "-atoms", "200", "-steps", "3", "-nbevery", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "position checksum") {
		t.Errorf("no checksum line in:\n%s", stdout.String())
	}
}
