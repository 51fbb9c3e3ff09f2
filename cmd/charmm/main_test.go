package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
)

// refusal is a command line the command must refuse, and a substring of the
// one line that says why.
type refusal struct {
	args []string
	want string
}

// TestBadInputExitsWithOneLine: input the run cannot honour — among it a
// -resume of another application's checkpoint or of another size — is
// refused before any rank starts — exit status 2, one "charmm:" line saying
// why and the usage on stderr, nothing on stdout, and no goroutine dump.
func TestBadInputExitsWithOneLine(t *testing.T) {
	foreign := sealedCheckpoint(t.TempDir(), "dsmc", 0)   // a checkpoint dsmc wrote
	small := sealedCheckpoint(t.TempDir(), "charmm", 300) // a checkpoint of 300 atoms
	unmade := filepath.Join(t.TempDir(), "D")             // a -ckpt-dir no run may create
	rows := []refusal{
		{[]string{"-resume", foreign}, `was written by "dsmc"`},
		{[]string{"-atoms", "450", "-resume", small}, "holds 300 elements, want 450"},
		{[]string{"-resume", filepath.Join(foreign, "missing")}, "open checkpoint"},
		{[]string{"-part", "nonsense"}, "unknown partitioner nonsense"},
		{[]string{"-remap", "bogus"}, `bad remap "bogus" (want a step count, static or policy)`},
		{[]string{"-remap", "periodic:3"}, `bad remap "periodic:3"`},
		{[]string{"-atoms", "0"}, "NAtoms is 0, want at least 1"},
		{[]string{"-remap", "-1"}, `bad remap "-1"`},
		{[]string{"-ckpt-every", "-1"}, "CheckpointEvery is -1, want at least 0"},
		{[]string{"-resume", "latest"}, "-resume latest requires -ckpt-dir"},
		{[]string{"-crash-rank", "-1"}, "-crash-rank -1 is not one of the"},
		{[]string{"-compiled", "-resume", "somewhere"}, "-compiled takes no -resume"},
		{[]string{"-compiled", "-ckpt-dir", foreign, "-ckpt-every", "2"}, "-compiled takes no -ckpt-every"},
		{[]string{"-compiled", "-multiple"}, "-compiled takes no -multiple"},
		{[]string{"-kernel", "-remap", "policy"}, `-kernel redistributes every N iterations: -remap "policy" is not a step count`},
		{[]string{"-kernel", "-ckpt-dir", foreign, "-ckpt-every", "2"}, "-kernel takes no -ckpt-every"},
		{[]string{"-kernel", "-multiple"}, "-kernel takes no -multiple"},
		{[]string{"-kernel", "-part", "rib"}, "-kernel takes no -part"},
		{[]string{"-kernel", "-nbevery", "3"}, "-kernel takes no -nbevery"},
		{[]string{"-kernel", "-atoms", "0"}, "NAtoms is 0, want at least 1"},
		{[]string{"-kernel", "-atoms", "300", "-steps", "2", "-ckpt-dir", unmade}, "CheckpointDir set without CheckpointEvery or ResumeFrom"},
		{[]string{"-compiled", "-atoms", "300", "-steps", "2", "-ckpt-dir", unmade}, "CheckpointDir set without CheckpointEvery or ResumeFrom"},
		{[]string{"-atoms", "300", "-steps", "2", "-ckpt-dir", unmade}, "CheckpointDir set without CheckpointEvery or ResumeFrom"},
		{[]string{"-atoms", "300", "-steps", "2", "-remap", "3", "-adapt-verify"}, `decision verification needs remap "policy", not "3"`},
		{[]string{"-atoms", "300", "-steps", "2", "-crash-rank", "1"}, "CrashRank is 1 without a CrashStep"},
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
		args := r.args
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		first, rest, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(first, "charmm: ") || strings.HasPrefix(first, "charmm: charmm:") || !strings.Contains(first, r.want) {
			t.Errorf("%v: stderr starts %q, want one charmm: line saying %q", args, first, r.want)
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
	if _, err := os.Stat(unmade); !os.IsNotExist(err) {
		t.Errorf("a refused run made its -ckpt-dir %s (stat: %v)", unmade, err)
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

// TestStdoutGolden: the report is byte-identical to what the binary printed
// before the launcher moved into internal/launch (plain and trace were
// written by that binary, kernel by the first with -kernel; only the
// host-clock "(wall N.NNs)" field is masked) — on the kernels the host
// selects and with the portable Go loops forced (charmm.VectorKernels), which
// must print the same bytes.
func TestStdoutGolden(t *testing.T) {
	host := charmm.VectorKernels
	defer func() { charmm.VectorKernels = host }()
	wall := regexp.MustCompile(`\(wall [0-9.]+s\)`)
	for _, vec := range []bool{host, false} {
		charmm.VectorKernels = vec
		for name, args := range map[string][]string{
			"plain":  {"-procs", "2", "-atoms", "200", "-steps", "6", "-nbevery", "2", "-remap", "3"},
			"trace":  {"-procs", "3", "-atoms", "240", "-steps", "4", "-nbevery", "2", "-remap", "2", "-compiled", "-trace"},
			"kernel": {"-kernel", "-compiled", "-atoms", "300", "-steps", "4", "-remap", "2", "-procs", "2"},
		} {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s, vector kernels %v: exit %d, stderr:\n%s", name, vec, code, stderr.String())
			}
			want, err := os.ReadFile("testdata/" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got := wall.ReplaceAll(stdout.Bytes(), []byte("(wall N.NNs)")); !bytes.Equal(got, want) {
				t.Errorf("%s, vector kernels %v: stdout differs from testdata/%s.golden:\n%s", name, vec, name, got)
			}
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
