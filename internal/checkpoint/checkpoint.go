package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
)

// manifestName is the file that seals a checkpoint directory: it is written
// last (atomically), so its presence marks the checkpoint complete.
const manifestName = "MANIFEST.ckpt"

// manifest describes one complete checkpoint.
type manifest struct {
	// app identifies the writing application ("charmm", "dsmc", ...);
	// restore refuses a manifest from a different application.
	app string
	// nRanks is the processor count that wrote the checkpoint.
	nRanks int
	// Step is the time step the state was captured at.
	Step int64
	// n is the length of the primary distributed index space (atoms for
	// CHARMM, cells for DSMC).
	n int64
	// shardCRCs[r] is the CRC32 of rank r's entire shard file, a second
	// integrity layer above the per-record CRCs.
	shardCRCs []uint32
}

// encodeManifest serializes a manifest.
func encodeManifest(m *manifest) []byte {
	s := NewSnapshot()
	s.putBytes("app", []byte(m.app))
	s.PutScalarI64("nranks", int64(m.nRanks))
	s.PutScalarI64("step", m.Step)
	s.PutScalarI64("n", m.n)
	crcs := make([]int64, len(m.shardCRCs))
	for i, c := range m.shardCRCs {
		crcs[i] = int64(c)
	}
	s.putI64("shardcrc", crcs)
	return s.encode(kindManifest)
}

// decodeManifest parses a manifest file image. It never panics on malformed
// input.
func decodeManifest(b []byte) (*manifest, error) {
	s, err := decodeSnapshot(b, kindManifest)
	if err != nil {
		return nil, err
	}
	app, err := s.bytes("app")
	if err != nil {
		return nil, err
	}
	nranks, err := s.scalarI64("nranks")
	if err != nil {
		return nil, err
	}
	step, err := s.scalarI64("step")
	if err != nil {
		return nil, err
	}
	n, err := s.scalarI64("n")
	if err != nil {
		return nil, err
	}
	crcs, err := s.i64("shardcrc")
	if err != nil {
		return nil, err
	}
	if nranks < 1 || int64(len(crcs)) != nranks {
		return nil, fmt.Errorf("checkpoint: manifest has %d shard CRCs for %d ranks", len(crcs), nranks)
	}
	m := &manifest{app: string(app), nRanks: int(nranks), Step: step, n: n}
	m.shardCRCs = make([]uint32, len(crcs))
	for i, c := range crcs {
		m.shardCRCs[i] = uint32(c)
	}
	return m, nil
}

// shardName returns the file name of rank r's shard.
func shardName(r int) string { return fmt.Sprintf("shard-%04d.ckpt", r) }

// StepDir returns the checkpoint directory for a given step under base.
func StepDir(base string, step int64) string {
	return filepath.Join(base, fmt.Sprintf("ckpt-%08d", step))
}

// writeFileAtomic writes data to path via a temp file + rename, so readers
// never observe a partially written file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeShard writes rank's shard into dir and returns the whole-file CRC32
// recorded in the manifest.
func writeShard(dir string, rank int, s *Snapshot) (uint32, error) {
	b := s.encode(kindShard)
	if err := writeFileAtomic(filepath.Join(dir, shardName(rank)), b); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// readShard reads and validates rank's shard from dir. wantCRC is the
// manifest's whole-file CRC for this shard (pass 0 to skip the cross-check).
func readShard(dir string, rank int, wantCRC uint32) (*Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, shardName(rank)))
	if err != nil {
		return nil, err
	}
	if wantCRC != 0 {
		if got := crc32.ChecksumIEEE(b); got != wantCRC {
			return nil, fmt.Errorf("checkpoint: shard %d CRC %08x does not match manifest %08x", rank, got, wantCRC)
		}
	}
	return decodeSnapshot(b, kindShard)
}

// writeManifest seals the checkpoint directory.
func writeManifest(dir string, m *manifest) error {
	return writeFileAtomic(filepath.Join(dir, manifestName), encodeManifest(m))
}

// open reads and validates the manifest of a checkpoint directory.
func open(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(b)
}

// Latest returns the most recent complete checkpoint directory under base
// (highest step with a manifest present), or ok=false if none exists.
func Latest(base string) (dir string, ok bool) {
	ents, err := os.ReadDir(base)
	if err != nil {
		return "", false
	}
	var names []string
	for _, e := range ents {
		var step int64
		if e.IsDir() && len(e.Name()) == len("ckpt-00000000") {
			if _, err := fmt.Sscanf(e.Name(), "ckpt-%d", &step); err == nil {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names)
	for i := len(names) - 1; i >= 0; i-- {
		d := filepath.Join(base, names[i])
		if _, err := os.Stat(filepath.Join(d, manifestName)); err == nil {
			return d, true
		}
	}
	return "", false
}

// ResolveResume turns a launcher's -resume argument into a checkpoint
// directory: arg itself (the empty string included), or, for the special
// value "latest", the most recent sealed checkpoint under base.
func ResolveResume(arg, base string) (string, error) {
	if arg != "latest" {
		return arg, nil
	}
	if base == "" {
		return "", errors.New("-resume latest requires -ckpt-dir")
	}
	dir, ok := Latest(base)
	if !ok {
		return "", fmt.Errorf("no sealed checkpoint under %s", base)
	}
	return dir, nil
}

// Save writes one checkpoint collectively: every rank writes its shard,
// rank 0 gathers the shard CRCs and seals the directory with the manifest,
// and the final barrier guarantees that when Save returns on any rank, the
// checkpoint is complete on all of them. app and n are validated on
// restore; snap is this rank's state, to which Save adds the rank's virtual
// clock as a last record, "clock", for Restore. Returns the checkpoint
// directory. I/O failures panic, like any other collective failure in this
// codebase, and surface as PeerFailure on the other ranks.
func Save(p *comm.Proc, base, app string, n, step int64, snap *Snapshot) string {
	snap.putScalarF64("clock", p.Clock())
	dir := StepDir(base, step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(fmt.Sprintf("checkpoint: mkdir %s: %v", dir, err))
	}
	crc, err := writeShard(dir, p.Rank(), snap)
	if err != nil {
		panic(fmt.Sprintf("checkpoint: write shard %d: %v", p.Rank(), err))
	}
	gathered := p.AllGatherI64([]int64{int64(crc)})
	if p.Rank() == 0 {
		m := &manifest{app: app, nRanks: p.Size(), Step: step, n: n, shardCRCs: make([]uint32, p.Size())}
		for r := range gathered {
			m.shardCRCs[r] = uint32(gathered[r][0])
		}
		if err := writeManifest(dir, m); err != nil {
			panic(fmt.Sprintf("checkpoint: write manifest: %v", err))
		}
	}
	p.Barrier()
	return dir
}

// loadShards reads the shards assigned to this rank under the round-robin
// elastic assignment (shard r goes to rank r mod nranks) and returns them
// in ascending shard order. With nranks == m.NRanks every rank gets exactly
// its own shard back. Purely local file I/O; no communication.
func loadShards(dir string, m *manifest, rank, nranks int) ([]*Snapshot, error) {
	var out []*Snapshot
	for r := rank; r < m.nRanks; r += nranks {
		s, err := readShard(dir, r, m.shardCRCs[r])
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// check opens the checkpoint in dir and checks that app wrote it over n
// elements. It is not collective: a launcher refuses a wrong checkpoint
// with it before any rank starts.
func check(dir, app string, n int64) (*manifest, error) {
	m, err := open(dir)
	switch {
	case err != nil:
		return nil, fmt.Errorf("open checkpoint: %w", err)
	case m.app != app:
		return nil, fmt.Errorf("checkpoint %s was written by %q", dir, m.app)
	case m.n != n:
		return nil, fmt.Errorf("checkpoint %s holds %d elements, want %d", dir, m.n, n)
	}
	return m, nil
}

// Recovery is a run's checkpoint, resume and crash-injection settings, which
// the applications' configurations embed and internal/launch's flags set.
type Recovery struct {
	// CheckpointEvery > 0 checkpoints under CheckpointDir every N steps.
	CheckpointEvery int
	CheckpointDir   string
	// ResumeFrom, when set, continues the checkpoint in that directory on any
	// processor count; on the writer's, bit-identically.
	ResumeFrom string
	// CrashStep > 0 makes rank CrashRank panic at the start of that step.
	CrashStep, CrashRank int
}

// Validate reports inconsistent settings as app's configuration complaint.
func (r *Recovery) Validate(app string) error {
	switch {
	case r.CheckpointEvery < 0:
		return fmt.Errorf("%s: CheckpointEvery is %d, want at least 0", app, r.CheckpointEvery)
	case r.CheckpointEvery > 0 && r.CheckpointDir == "":
		return fmt.Errorf("%s: CheckpointEvery set without CheckpointDir", app)
	case r.CheckpointDir != "" && r.CheckpointEvery == 0 && r.ResumeFrom == "":
		return fmt.Errorf("%s: CheckpointDir set without CheckpointEvery or ResumeFrom", app)
	case r.CrashRank != 0 && r.CrashStep == 0:
		return fmt.Errorf("%s: CrashRank is %d without a CrashStep", app, r.CrashRank)
	}
	return nil
}

// CheckResume runs Check on ResumeFrom, when set. Not collective.
func (r *Recovery) CheckResume(app string, n int64) (err error) {
	if r.ResumeFrom != "" {
		_, err = check(r.ResumeFrom, app, n)
	}
	return err
}

// Crash panics, as app's injected crash, when rank is to crash at step. It
// inlines to the compares: the panic is out of line.
func (r *Recovery) Crash(app string, rank, step int) {
	if r.CrashStep > 0 && step == r.CrashStep && rank == r.CrashRank {
		crash(app, rank, step)
	}
}

//go:noinline
func crash(app string, rank, step int) {
	panic(fmt.Sprintf("%s: injected crash on rank %d at step %d", app, rank, step))
}

// SaveDue reports whether a checkpoint is due after step.
func (r *Recovery) SaveDue(step int) bool {
	return r.CheckpointEvery > 0 && step%r.CheckpointEvery == 0
}

// Restored is one rank's share of a checkpoint, as Restore leaves it.
type Restored struct {
	*manifest
	Shards    []*Snapshot // the shards this rank read, in ascending order
	*elements             // their fields, merged
	Dist      *core.Dist  // over Elements.Globals
	Exact     bool        // restored on as many ranks as wrote it
	Max       []int64     // the largest value of each of Restore's maxima
}

// Restore is the collective prologue of a restart from the checkpoint in
// dir that app wrote over n elements: it checks the checkpoint (Check),
// reads this rank's shards (LoadShards), merges their fields (MergeShards)
// into a distribution rt builds, and takes each int64 scalar named in
// maxima to its largest value. It restores the virtual clock Save
// recorded: on an exact restore this rank's own, before any collective; on
// an elastic one the largest of all ranks', agreed after the maxima. The
// rank's next phase starts at the restored clock (Proc.SkipPhase). Failures
// panic, naming app.
func Restore(p *comm.Proc, rt *core.Runtime, dir, app string, n int, fields []Field, maxima ...string) *Restored {
	fail := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("%s: %v", app, err))
		}
	}
	m, err := check(dir, app, int64(n))
	fail(err)
	shards, err := loadShards(dir, m, p.Rank(), p.Size())
	fail(err)
	el, err := mergeShards(shards, fields)
	fail(err)
	exact := m.nRanks == p.Size()
	r := &Restored{manifest: m, Shards: shards, elements: el, Exact: exact, Max: make([]int64, len(maxima))}
	clock := 0.0
	for _, sh := range shards {
		c, err := sh.scalarF64("clock")
		fail(err)
		clock = max(clock, c)
		for i, name := range maxima {
			v, err := sh.scalarI64(name)
			fail(err)
			r.Max[i] = max(r.Max[i], v)
		}
	}
	if exact {
		p.RestoreClock(clock)
		p.SkipPhase()
	}
	r.Dist = rt.DistFromGlobals(el.globals, n)
	if !exact {
		// A rank with no shard (Q > P) contributes zeros.
		for i := range maxima {
			r.Max[i] = p.AllReduceScalarI64(comm.OpMax, r.Max[i])
		}
		if clock = p.AllReduceScalarF64(comm.OpMax, clock); clock > p.Clock() {
			p.RestoreClock(clock)
		}
		p.SkipPhase()
	}
	return r
}
