// Package checkpoint implements checkpoint/restore and elastic restart for
// distributed CHAOS runs.
//
// A checkpoint is a directory of per-rank shard files sealed by a manifest:
//
//	<base>/ckpt-00000050/
//	    shard-0000.ckpt     rank 0's owned state
//	    shard-0001.ckpt     rank 1's owned state
//	    ...
//	    MANIFEST.ckpt       written last by rank 0; its presence marks the
//	                        checkpoint complete (shards carry CRCs it records)
//
// Every file uses the same versioned, CRC-checked binary container: a fixed
// header followed by named, typed records (byte, int32, int64 or float64
// payloads), each protected by a CRC32. Decoding never panics: truncated,
// bit-flipped or otherwise malformed files return errors (see the fuzz
// tests), so a half-written checkpoint from a crashed run is diagnosed, not
// trusted.
//
// Restore supports two modes. Exact restore (same processor count) hands
// every rank its own shard back, bit for bit, so a continued simulation is
// indistinguishable from an uninterrupted one. Elastic restore (P ranks
// written, Q ranks restored) assigns shards round-robin to the new ranks,
// merges the per-element state back into the repository's ascending-global
// layout convention (mergeShards), rebuilds an interim distribution from the
// saved owner sets, and leaves the application to run a partitioner for Q
// and drive remap.Plan / Dist.Repartition — the paper's phase A-D machinery
// — to rebalance onto the new machine.
//
// The applications' RNGs need no saving: both CHARMM and DSMC derive all
// randomness deterministically from the config seed (and, for DSMC
// collisions, the cell and step indices), so the restored run replays them
// from the step counter alone.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// File container constants.
const (
	magic   = "CHAOSCK1"
	version = 1
)

// fileKind distinguishes the two file roles sharing the container format.
type fileKind uint8

const (
	kindManifest fileKind = 1
	kindShard    fileKind = 2
)

// recType is the payload type of one record.
type recType uint8

const (
	recBytes recType = iota
	recI32
	recI64
	recF64
)

func (r recType) String() string {
	switch r {
	case recBytes:
		return "bytes"
	case recI32:
		return "int32"
	case recI64:
		return "int64"
	case recF64:
		return "float64"
	default:
		return fmt.Sprintf("recType(%d)", uint8(r))
	}
}

// elemSize returns the wire size of one element of type r.
func (r recType) elemSize() int {
	switch r {
	case recBytes:
		return 1
	case recI32:
		return 4
	default:
		return 8
	}
}

// record is one named, typed section of a snapshot.
type record struct {
	name string
	typ  recType
	data []byte // wire-format payload
}

// Snapshot is an in-memory set of named, typed sections — one rank's state
// in a shard file, or the manifest's metadata. Sections keep insertion
// order, so encoding is deterministic.
type Snapshot struct {
	recs  []record
	index map[string]int
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{index: make(map[string]int)}
}

// put appends or replaces the named record.
func (s *Snapshot) put(name string, typ recType, data []byte) {
	if i, ok := s.index[name]; ok {
		s.recs[i] = record{name: name, typ: typ, data: data}
		return
	}
	s.index[name] = len(s.recs)
	s.recs = append(s.recs, record{name: name, typ: typ, data: data})
}

// putBytes stores a raw byte section.
func (s *Snapshot) putBytes(name string, b []byte) {
	s.put(name, recBytes, append([]byte(nil), b...))
}

// word is the element type of a typed section.
type word interface{ int32 | int64 | float64 }

// recOf returns the record type of a section of T.
func recOf[T word]() recType {
	switch any(*new(T)).(type) {
	case int32:
		return recI32
	case int64:
		return recI64
	}
	return recF64
}

// putWords stores a typed section, little-endian.
func putWords[T word](s *Snapshot, name string, xs []T) {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, xs) // a bytes.Buffer takes every write
	s.put(name, recOf[T](), b.Bytes())
}

// words returns a typed section.
func words[T word](s *Snapshot, name string) ([]T, error) {
	r, err := s.get(name, recOf[T]())
	if err != nil {
		return nil, err
	}
	xs := make([]T, len(r.data)/r.typ.elemSize())
	return xs, binary.Read(bytes.NewReader(r.data), binary.LittleEndian, xs)
}

// PutI32 stores an int32 section.
func (s *Snapshot) PutI32(name string, xs []int32) { putWords(s, name, xs) }

// putI64 stores an int64 section.
func (s *Snapshot) putI64(name string, xs []int64) { putWords(s, name, xs) }

// PutF64 stores a float64 section.
func (s *Snapshot) PutF64(name string, xs []float64) { putWords(s, name, xs) }

// PutScalarI64 stores a single int64.
func (s *Snapshot) PutScalarI64(name string, v int64) { s.putI64(name, []int64{v}) }

// putScalarF64 stores a single float64.
func (s *Snapshot) putScalarF64(name string, v float64) { s.PutF64(name, []float64{v}) }

// get fetches the named record, checking its type.
func (s *Snapshot) get(name string, typ recType) (record, error) {
	i, ok := s.index[name]
	if !ok {
		return record{}, fmt.Errorf("checkpoint: no section %q", name)
	}
	r := s.recs[i]
	if r.typ != typ {
		return record{}, fmt.Errorf("checkpoint: section %q is %v, want %v", name, r.typ, typ)
	}
	return r, nil
}

// bytes returns a raw byte section.
func (s *Snapshot) bytes(name string) ([]byte, error) {
	r, err := s.get(name, recBytes)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), r.data...), nil
}

// I32 returns an int32 section.
func (s *Snapshot) I32(name string) ([]int32, error) { return words[int32](s, name) }

// i64 returns an int64 section.
func (s *Snapshot) i64(name string) ([]int64, error) { return words[int64](s, name) }

// F64 returns a float64 section.
func (s *Snapshot) F64(name string) ([]float64, error) { return words[float64](s, name) }

// scalarI64 returns a single-int64 section.
func (s *Snapshot) scalarI64(name string) (int64, error) {
	xs, err := s.i64(name)
	if err != nil {
		return 0, err
	}
	if len(xs) != 1 {
		return 0, fmt.Errorf("checkpoint: section %q has %d values, want 1", name, len(xs))
	}
	return xs[0], nil
}

// scalarF64 returns a single-float64 section.
func (s *Snapshot) scalarF64(name string) (float64, error) {
	xs, err := s.F64(name)
	if err != nil {
		return 0, err
	}
	if len(xs) != 1 {
		return 0, fmt.Errorf("checkpoint: section %q has %d values, want 1", name, len(xs))
	}
	return xs[0], nil
}

// Encoding. File layout (little-endian):
//
//	magic   [8]byte "CHAOSCK1"
//	version uint32
//	kind    uint8
//	nrec    uint32
//	nrec records:
//	    nameLen uint16
//	    name    [nameLen]byte
//	    typ     uint8
//	    count   uint64          (elements, not bytes)
//	    payload [count*size]byte
//	    crc     uint32          (CRC32-IEEE of the record bytes before it)
//
// Trailing bytes after the last record are an error, so truncation and
// length corruption are always detected.

// encode serializes the snapshot with the given file kind.
func (s *Snapshot) encode(kind fileKind) []byte {
	size := len(magic) + 4 + 1 + 4
	for _, r := range s.recs {
		size += 2 + len(r.name) + 1 + 8 + len(r.data) + 4
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = append(out, byte(kind))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.recs)))
	for _, r := range s.recs {
		start := len(out)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(r.name)))
		out = append(out, r.name...)
		out = append(out, byte(r.typ))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(r.data)/r.typ.elemSize()))
		out = append(out, r.data...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	}
	return out
}

// decodeSnapshot parses a container of the expected kind. It never panics:
// any malformed input returns an error.
func decodeSnapshot(b []byte, wantKind fileKind) (*Snapshot, error) {
	cur := 0
	need := func(n int) error {
		if n < 0 || len(b)-cur < n {
			return fmt.Errorf("checkpoint: truncated file (need %d bytes at offset %d of %d)", n, cur, len(b))
		}
		return nil
	}
	if err := need(len(magic) + 4 + 1 + 4); err != nil {
		return nil, err
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", b[:len(magic)])
	}
	cur = len(magic)
	if v := binary.LittleEndian.Uint32(b[cur:]); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", v, version)
	}
	cur += 4
	if k := fileKind(b[cur]); k != wantKind {
		return nil, fmt.Errorf("checkpoint: file kind %d, want %d", k, wantKind)
	}
	cur++
	nrec := int(binary.LittleEndian.Uint32(b[cur:]))
	cur += 4

	s := NewSnapshot()
	for i := 0; i < nrec; i++ {
		start := cur
		if err := need(2); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(b[cur:]))
		cur += 2
		if err := need(nameLen + 1 + 8); err != nil {
			return nil, err
		}
		name := string(b[cur : cur+nameLen])
		cur += nameLen
		typ := recType(b[cur])
		cur++
		if typ > recF64 {
			return nil, fmt.Errorf("checkpoint: record %q has unknown type %d", name, typ)
		}
		count := binary.LittleEndian.Uint64(b[cur:])
		cur += 8
		// Bound the payload by the remaining file size before allocating,
		// so corrupted counts cannot trigger huge allocations.
		if count > uint64(len(b)-cur)/uint64(typ.elemSize()) {
			return nil, fmt.Errorf("checkpoint: record %q claims %d elements, beyond file end", name, count)
		}
		plen := int(count) * typ.elemSize()
		payload := b[cur : cur+plen]
		cur += plen
		if err := need(4); err != nil {
			return nil, err
		}
		want := binary.LittleEndian.Uint32(b[cur:])
		if got := crc32.ChecksumIEEE(b[start:cur]); got != want {
			return nil, fmt.Errorf("checkpoint: record %q CRC mismatch (got %08x, want %08x)", name, got, want)
		}
		cur += 4
		if _, dup := s.index[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		s.put(name, typ, append([]byte(nil), payload...))
	}
	if cur != len(b) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last record", len(b)-cur)
	}
	return s, nil
}
