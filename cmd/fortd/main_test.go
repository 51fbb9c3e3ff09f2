package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const example = "../../examples/fortd/charmm_loop.fd"

// TestBadInputExitsWithOneLine: flags the run cannot honour, and flags the
// mode would ignore, are refused before any rank starts — exit status 2, one
// "fortd:" line saying why and the usage on stderr, nothing on stdout, and no
// goroutine dump.
func TestBadInputExitsWithOneLine(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // the complaint
	}{
		{[]string{"-procs", "0", example}, "-procs must be at least 1, got 0"},
		{[]string{"-procs", "-1", example}, "-procs must be at least 1, got -1"},
		{[]string{"-steps", "0", example}, "-steps must be at least 1, got 0"},
		{[]string{"-steps", "-2", example}, "-steps must be at least 1, got -2"},
		{[]string{"-degree", "-1", example}, "-degree must not be negative, got -1"},
		{[]string{"-redistribute", "-1", example}, "-redistribute must not be negative, got -1"},
		{[]string{}, "want exactly one program file, got 0 argument(s)"},
		{[]string{"-O"}, "want exactly one program file, got 0 argument(s)"},
		{[]string{example, example}, "want exactly one program file, got 2 argument(s)"},
		// Flags the mode would ignore.
		{[]string{"-json", example}, "-json formats -vet's findings; give it with -vet"},
		{[]string{"-vet", "-O", example}, "-O sets how the program runs; -vet does not run it"},
		{[]string{"-vet", "-procs", "3", example}, "-procs sets how the program runs"},
		{[]string{"-vet", "-steps", "3", example}, "-steps sets how the program runs"},
		{[]string{"-vet", "-degree", "4", example}, "-degree sets how the program runs"},
		{[]string{"-vet", "-json", "-redistribute", "2", example}, "-redistribute sets how the program runs"},
	} {
		args := c.args
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "fortd: ") || !strings.Contains(first, c.want) {
			t.Errorf("%v: stderr starts %q, want one fortd: line saying %q", args, first, c.want)
		}
		if !strings.Contains(rest, "usage: fortd") || !strings.Contains(rest, "-procs") {
			t.Errorf("%v: no usage after the complaint:\n%s", args, rest)
		}
		if strings.Contains(stderr.String(), "goroutine") || strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: stderr carries a panic:\n%s", args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, stdout.String())
		}
	}
}

// TestCompileErrorExits1: a program the compiler rejects is a positioned
// diagnostic and exit status 1, not a usage error.
func TestCompileErrorExits1(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "wide.fd")
	src := "DECOMPOSITION atoms(40)\nINDIRECTION p(atoms) WIDTH 2\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-procs", "2", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "fortd: " + bad + ":2:28: "; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr %q, want prefix %q", stderr.String(), want)
	}
}

// TestStdoutGolden: every shipped example prints byte for byte what the
// binary printed before the middle end was collapsed to one statement tree
// (testdata/*.golden were written by that binary; only the host-clock
// "(wall …)" field is masked): -O0 and -O runs with redistribution, and -vet;
// and -vet -json of a program without findings prints [].
func TestStdoutGolden(t *testing.T) {
	wall := regexp.MustCompile(`\(wall [^)]*\)`)
	files, err := filepath.Glob("../../examples/fortd/*.fd")
	if err != nil || len(files) != 4 {
		t.Fatalf("examples: %v, %v", files, err)
	}
	run3 := []string{"-procs", "3", "-steps", "3", "-redistribute", "2"}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".fd")
		for mode, flags := range map[string][]string{
			"O0":  run3,
			"O":   append([]string{"-O"}, run3...),
			"vet": {"-vet"},
		} {
			var stdout, stderr bytes.Buffer
			if code := run(append(flags, file), &stdout, &stderr); code != 0 {
				t.Fatalf("%s %s: exit %d, stderr:\n%s", name, mode, code, stderr.String())
			}
			golden := filepath.Join("testdata", name+"."+mode+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := wall.ReplaceAll(stdout.Bytes(), []byte("(wall …)")); !bytes.Equal(got, want) {
				t.Errorf("%s: stdout differs from %s:\n%s", name, golden, got)
			}
		}
	}
	// A program without findings: -vet -json prints an empty array.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet", "-json", "../../examples/fortd/charmm_loop.fd"}, &stdout, &stderr); code != 0 || stdout.String() != "[]\n" {
		t.Errorf("-vet -json charmm_loop.fd: exit %d, stdout %q, want 0 and %q; stderr:\n%s", code, stdout.String(), "[]\n", stderr.String())
	}
}
