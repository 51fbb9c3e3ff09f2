package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/comm"
)

// ManifestName is the file that seals a checkpoint directory: it is written
// last (atomically), so its presence marks the checkpoint complete.
const ManifestName = "MANIFEST.ckpt"

// Manifest describes one complete checkpoint.
type Manifest struct {
	// App identifies the writing application ("charmm", "dsmc", ...);
	// restore refuses a manifest from a different application.
	App string
	// NRanks is the processor count that wrote the checkpoint.
	NRanks int
	// Step is the time step the state was captured at.
	Step int64
	// N is the length of the primary distributed index space (atoms for
	// CHARMM, cells for DSMC).
	N int64
	// ShardCRCs[r] is the CRC32 of rank r's entire shard file, a second
	// integrity layer above the per-record CRCs.
	ShardCRCs []uint32
}

// EncodeManifest serializes a manifest.
func EncodeManifest(m *Manifest) []byte {
	s := NewSnapshot()
	s.PutBytes("app", []byte(m.App))
	s.PutScalarI64("nranks", int64(m.NRanks))
	s.PutScalarI64("step", m.Step)
	s.PutScalarI64("n", m.N)
	crcs := make([]int64, len(m.ShardCRCs))
	for i, c := range m.ShardCRCs {
		crcs[i] = int64(c)
	}
	s.PutI64("shardcrc", crcs)
	return s.encode(kindManifest)
}

// DecodeManifest parses a manifest file image. It never panics on malformed
// input.
func DecodeManifest(b []byte) (*Manifest, error) {
	s, err := decodeSnapshot(b, kindManifest)
	if err != nil {
		return nil, err
	}
	app, err := s.Bytes("app")
	if err != nil {
		return nil, err
	}
	nranks, err := s.ScalarI64("nranks")
	if err != nil {
		return nil, err
	}
	step, err := s.ScalarI64("step")
	if err != nil {
		return nil, err
	}
	n, err := s.ScalarI64("n")
	if err != nil {
		return nil, err
	}
	crcs, err := s.I64("shardcrc")
	if err != nil {
		return nil, err
	}
	if nranks < 1 || int64(len(crcs)) != nranks {
		return nil, fmt.Errorf("checkpoint: manifest has %d shard CRCs for %d ranks", len(crcs), nranks)
	}
	m := &Manifest{App: string(app), NRanks: int(nranks), Step: step, N: n}
	m.ShardCRCs = make([]uint32, len(crcs))
	for i, c := range crcs {
		m.ShardCRCs[i] = uint32(c)
	}
	return m, nil
}

// ShardName returns the file name of rank r's shard.
func ShardName(r int) string { return fmt.Sprintf("shard-%04d.ckpt", r) }

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

// WriteShard writes rank's shard into dir and returns the whole-file CRC32
// recorded in the manifest.
func WriteShard(dir string, rank int, s *Snapshot) (uint32, error) {
	b := s.encode(kindShard)
	if err := writeFileAtomic(filepath.Join(dir, ShardName(rank)), b); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// ReadShard reads and validates rank's shard from dir. wantCRC is the
// manifest's whole-file CRC for this shard (pass 0 to skip the cross-check).
func ReadShard(dir string, rank int, wantCRC uint32) (*Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, ShardName(rank)))
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

// WriteManifest seals the checkpoint directory.
func WriteManifest(dir string, m *Manifest) error {
	return writeFileAtomic(filepath.Join(dir, ManifestName), EncodeManifest(m))
}

// Open reads and validates the manifest of a checkpoint directory.
func Open(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
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
		if _, err := os.Stat(filepath.Join(d, ManifestName)); err == nil {
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
// restore; snap is this rank's state. Returns the checkpoint directory.
// I/O failures panic, like any other collective failure in this codebase,
// and surface as PeerFailure on the other ranks.
func Save(p *comm.Proc, base, app string, n, step int64, snap *Snapshot) string {
	dir := StepDir(base, step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(fmt.Sprintf("checkpoint: mkdir %s: %v", dir, err))
	}
	crc, err := WriteShard(dir, p.Rank(), snap)
	if err != nil {
		panic(fmt.Sprintf("checkpoint: write shard %d: %v", p.Rank(), err))
	}
	gathered := p.AllGather(comm.EncodeI64([]int64{int64(crc)}))
	if p.Rank() == 0 {
		m := &Manifest{App: app, NRanks: p.Size(), Step: step, N: n, ShardCRCs: make([]uint32, p.Size())}
		for r := range gathered {
			m.ShardCRCs[r] = uint32(comm.DecodeI64(gathered[r])[0])
		}
		if err := WriteManifest(dir, m); err != nil {
			panic(fmt.Sprintf("checkpoint: write manifest: %v", err))
		}
	}
	p.Barrier()
	return dir
}

// LoadShards reads the shards assigned to this rank under the round-robin
// elastic assignment (shard r goes to rank r mod nranks) and returns them
// in ascending shard order. With nranks == m.NRanks every rank gets exactly
// its own shard back. Purely local file I/O; no communication.
func LoadShards(dir string, m *Manifest, rank, nranks int) ([]*Snapshot, error) {
	var out []*Snapshot
	for r := rank; r < m.NRanks; r += nranks {
		s, err := ReadShard(dir, r, m.ShardCRCs[r])
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
