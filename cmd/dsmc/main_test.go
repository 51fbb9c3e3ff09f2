package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// TestBadInputExitsWithOneLine: input the run cannot honour — among it a
// -resume of another application's checkpoint or of another size — is
// refused before any rank starts — exit status 2, one "dsmc:" line and the usage on
// stderr, nothing on stdout, and no goroutine dump.
func TestBadInputExitsWithOneLine(t *testing.T) {
	foreign := sealedCheckpoint(t.TempDir(), "charmm", 0) // a checkpoint charmm wrote
	small := sealedCheckpoint(t.TempDir(), "dsmc", 144)   // a checkpoint of a 12×12 grid
	unmade := filepath.Join(t.TempDir(), "D")             // a -ckpt-dir no run may create
	rows := []refusal{
		{[]string{"-resume", foreign}, `was written by "charmm"`},
		{[]string{"-nx", "24", "-ny", "24", "-resume", small}, "holds 144 elements, want 576"},
		{[]string{"-resume", filepath.Join(foreign, "missing")}, "open checkpoint"},
		{[]string{"-mover", "bogus"}, "unknown mover bogus"},
		{[]string{"-part", "nonsense"}, "unknown partitioner nonsense"},
		{[]string{"-remap", "bogus"}, `bad remap "bogus" (want a step count, static or policy)`},
		{[]string{"-remap", "periodic:3"}, `bad remap "periodic:3"`},
		{[]string{"-part", "rcb"}, "-part rcb has no effect without -remap"},
		{[]string{"-part", "chain", "-remap", "0"}, "-part chain has no effect without -remap"},
		{[]string{"-nx", "0"}, "NX is 0, want at least 1"},
		{[]string{"-mols", "-1"}, "NMols is -1, want at least 0"},
		{[]string{"-remap", "-1"}, `bad remap "-1"`},
		{[]string{"-ckpt-every", "-1"}, "CheckpointEvery is -1, want at least 0"},
		{[]string{"-resume", "latest"}, "-resume latest requires -ckpt-dir"},
		{[]string{"-crash-rank", "-1"}, "-crash-rank -1 is not one of the"},
		{[]string{"-nx", "8", "-ny", "8", "-mols", "200", "-steps", "4", "-adapt-verify"}, `decision verification needs remap "policy", not "0"`},
		{[]string{"-nx", "8", "-ny", "8", "-mols", "200", "-steps", "4", "-crash-rank", "1"}, "CrashRank is 1 without a CrashStep"},
		{[]string{"-nx", "8", "-ny", "8", "-mols", "200", "-steps", "4", "-ckpt-dir", unmade}, "CheckpointDir set without CheckpointEvery or ResumeFrom"},
		{[]string{"-steps", "2", "stray"}, `unexpected argument "stray"`},
	}
	// As rank 0 of two processes every row is refused with the same
	// complaint, before the rank listens: one that dialled its absent peer
	// would exit 1.
	rank := []string{"-rank", "0", "-addrs", reserveAddrs(t, 2), "-timeout", "1s"}
	for _, r := range rows {
		rows = append(rows, refusal{slices.Concat(rank, r.args), r.want})
	}
	// -procs sets the rank count that -addrs sets, so these rows have no
	// such twin: under -addrs the count is the list's length, never below 1,
	// and the -crash-rank row's twin is written against the two addresses.
	rows = append(rows,
		refusal{[]string{"-procs", "0"}, "-procs must be at least 1, got 0"},
		refusal{[]string{"-procs", "-1"}, "-procs must be at least 1, got -1"},
		refusal{[]string{"-procs", "2", "-crash-rank", "7", "-crash-step", "2"}, "-crash-rank 7 is not one of the 2 ranks"},
		refusal{slices.Concat(rank, []string{"-crash-rank", "7", "-crash-step", "2"}), "-crash-rank 7 is not one of the 2 ranks"},
	)
	for _, r := range rows {
		wantRefused(t, r)
	}
	if _, err := os.Stat(unmade); !os.IsNotExist(err) {
		t.Errorf("a refused run made its -ckpt-dir %s (stat: %v)", unmade, err)
	}
}

// refusal is a command line dsmc must refuse, and a substring of the one
// line that says why.
type refusal struct {
	args []string
	want string
}

// wantRefused runs dsmc with r's arguments and demands the refusal of bad
// input: exit status 2, one "dsmc:" line saying r's complaint and the usage
// on stderr, nothing on stdout, and no goroutine dump.
func wantRefused(t *testing.T, r refusal) {
	t.Helper()
	args := r.args
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	first, rest, _ := strings.Cut(stderr.String(), "\n")
	if !strings.HasPrefix(first, "dsmc: ") || strings.HasPrefix(first, "dsmc: dsmc:") || !strings.Contains(first, r.want) {
		t.Errorf("%v: stderr starts %q, want one dsmc: line saying %q", args, first, r.want)
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
		"trace": {"-procs", "3", "-nx", "24", "-ny", "4", "-mols", "600", "-steps", "14", "-slab", "0.4", "-part", "chain", "-remap", "policy", "-trace"},
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

// sealedCheckpoint writes an empty one-rank checkpoint of app over n
// elements under base and returns its directory.
func sealedCheckpoint(base, app string, n int64) string {
	var dir string
	comm.Run(1, costmodel.IPSC860(), func(p *comm.Proc) {
		dir = checkpoint.Save(p, base, app, n, 1, checkpoint.NewSnapshot())
	})
	return dir
}
