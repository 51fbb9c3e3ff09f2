package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
)

func sampleSnapshot() *Snapshot {
	s := NewSnapshot()
	s.PutBytes("raw", []byte{0xde, 0xad, 0xbe, 0xef})
	s.PutI32("i32", []int32{-1, 0, 7, 1 << 30})
	s.PutI64("i64", []int64{-9, 42})
	s.PutF64("f64", []float64{0, -1.5, 3.14159})
	s.PutScalarI64("step", 50)
	s.PutScalarF64("clock", 123.456)
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	b := EncodeShard(s)
	got, err := DecodeShard(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.Names(), s.Names()) {
		t.Fatalf("names %v != %v", got.Names(), s.Names())
	}
	if raw, _ := got.Bytes("raw"); !reflect.DeepEqual(raw, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("raw = %v", raw)
	}
	if xs, _ := got.I32("i32"); !reflect.DeepEqual(xs, []int32{-1, 0, 7, 1 << 30}) {
		t.Fatalf("i32 = %v", xs)
	}
	if xs, _ := got.I64("i64"); !reflect.DeepEqual(xs, []int64{-9, 42}) {
		t.Fatalf("i64 = %v", xs)
	}
	if xs, _ := got.F64("f64"); !reflect.DeepEqual(xs, []float64{0, -1.5, 3.14159}) {
		t.Fatalf("f64 = %v", xs)
	}
	if v, _ := got.ScalarI64("step"); v != 50 {
		t.Fatalf("step = %d", v)
	}
	if v, _ := got.ScalarF64("clock"); v != 123.456 {
		t.Fatalf("clock = %g", v)
	}
}

func TestSnapshotTypeAndMissingErrors(t *testing.T) {
	s := sampleSnapshot()
	if _, err := s.F64("i32"); err == nil {
		t.Fatal("reading an int32 section as float64 should error")
	}
	if _, err := s.I32("nope"); err == nil {
		t.Fatal("missing section should error")
	}
	if _, err := s.ScalarI64("i64"); err == nil {
		t.Fatal("2-element section read as scalar should error")
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	b := EncodeManifest(&Manifest{App: "x", NRanks: 1, Step: 1, N: 1, ShardCRCs: []uint32{0}})
	if _, err := DecodeShard(b); err == nil {
		t.Fatal("manifest image decoded as shard")
	}
}

// TestDecodeRejectsEveryBitFlip exhaustively flips each bit of an encoded
// shard and manifest: every corruption must be detected (magic, version,
// kind, per-record CRCs, and the trailing-bytes check leave no blind spot),
// and none may panic.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	images := map[string][]byte{
		"shard":    EncodeShard(sampleSnapshot()),
		"manifest": EncodeManifest(&Manifest{App: "charmm", NRanks: 2, Step: 50, N: 100, ShardCRCs: []uint32{1, 2}}),
	}
	for name, img := range images {
		for bit := 0; bit < 8*len(img); bit++ {
			mut := append([]byte(nil), img...)
			mut[bit/8] ^= 1 << (bit % 8)
			var err error
			if name == "shard" {
				_, err = DecodeShard(mut)
			} else {
				_, err = DecodeManifest(mut)
			}
			if err == nil {
				t.Fatalf("%s: flipping bit %d went undetected", name, bit)
			}
		}
	}
}

// TestDecodeRejectsEveryTruncation checks that every proper prefix of an
// encoded shard fails to decode.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	img := EncodeShard(sampleSnapshot())
	for n := 0; n < len(img); n++ {
		if _, err := DecodeShard(img[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(img))
		}
	}
	if _, err := DecodeShard(append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{App: "dsmc", NRanks: 3, Step: 40, N: 2304, ShardCRCs: []uint32{7, 8, 9}}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestLatestPicksSealedCheckpoints(t *testing.T) {
	base := t.TempDir()
	if _, ok := Latest(base); ok {
		t.Fatal("Latest on empty base should report none")
	}
	if dir, err := ResolveResume("latest", base); err == nil {
		t.Fatalf(`ResolveResume("latest") on an empty base = %q, want an error`, dir)
	}
	if dir, err := ResolveResume("latest", ""); err == nil {
		t.Fatalf(`ResolveResume("latest") without a base = %q, want an error`, dir)
	}
	m := &Manifest{App: "x", NRanks: 1, Step: 10, N: 1, ShardCRCs: []uint32{0}}
	for _, step := range []int64{10, 20} {
		dir := StepDir(base, step)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		m.Step = step
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	// An unsealed (crashed mid-write) directory with a higher step must be
	// ignored.
	if err := os.MkdirAll(StepDir(base, 30), 0o755); err != nil {
		t.Fatal(err)
	}
	dir, ok := Latest(base)
	if !ok || dir != StepDir(base, 20) {
		t.Fatalf("Latest = %q, %v; want %q", dir, ok, StepDir(base, 20))
	}
	if dir, err := ResolveResume("latest", base); err != nil || dir != StepDir(base, 20) {
		t.Fatalf(`ResolveResume("latest") = %q, %v; want %q`, dir, err, StepDir(base, 20))
	}
	for _, arg := range []string{"", "some/dir"} { // anything else is taken as given
		if dir, err := ResolveResume(arg, base); err != nil || dir != arg {
			t.Fatalf("ResolveResume(%q) = %q, %v", arg, dir, err)
		}
	}
}

func TestShardCRCCrossCheck(t *testing.T) {
	dir := t.TempDir()
	crc, err := WriteShard(dir, 0, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(dir, 0, crc); err != nil {
		t.Fatalf("matching CRC rejected: %v", err)
	}
	if _, err := ReadShard(dir, 0, crc+1); err == nil {
		t.Fatal("wrong manifest CRC accepted")
	}
}

func TestMergeShards(t *testing.T) {
	fields := []Field{
		{Name: "w", Kind: FieldI32, Width: 2},
		{Name: "x", Kind: FieldF64, Width: 1},
		{Name: "nb", Kind: FieldCSR},
	}
	// Two shards with interleaved global sets, as a real elastic merge sees.
	a := NewSnapshot()
	a.PutI32("globals", []int32{0, 4})
	a.PutI32("w", []int32{0, 1, 40, 41})
	a.PutF64("x", []float64{0.5, 4.5})
	a.PutI32("nb.ptr", []int32{0, 2, 3})
	a.PutI32("nb.val", []int32{10, 11, 12})
	b := NewSnapshot()
	b.PutI32("globals", []int32{1, 3})
	b.PutI32("w", []int32{10, 11, 30, 31})
	b.PutF64("x", []float64{1.5, 3.5})
	b.PutI32("nb.ptr", []int32{0, 0, 2})
	b.PutI32("nb.val", []int32{20, 21})

	e, err := MergeShards([]*Snapshot{a, b}, fields)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Globals, []int32{0, 1, 3, 4}) {
		t.Fatalf("globals = %v", e.Globals)
	}
	if !reflect.DeepEqual(e.I32["w"], []int32{0, 1, 10, 11, 30, 31, 40, 41}) {
		t.Fatalf("w = %v", e.I32["w"])
	}
	if !reflect.DeepEqual(e.F64["x"], []float64{0.5, 1.5, 3.5, 4.5}) {
		t.Fatalf("x = %v", e.F64["x"])
	}
	if !reflect.DeepEqual(e.CSRPtr["nb"], []int32{0, 2, 2, 4, 5}) {
		t.Fatalf("nb.ptr = %v", e.CSRPtr["nb"])
	}
	if !reflect.DeepEqual(e.CSRVal["nb"], []int32{10, 11, 20, 21, 12}) {
		t.Fatalf("nb.val = %v", e.CSRVal["nb"])
	}
}

func TestMergeShardsEmpty(t *testing.T) {
	e, err := MergeShards(nil, []Field{{Name: "nb", Kind: FieldCSR}, {Name: "x", Kind: FieldF64, Width: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Globals) != 0 || len(e.CSRPtr["nb"]) != 1 || e.CSRPtr["nb"][0] != 0 {
		t.Fatalf("empty merge: globals=%v nb.ptr=%v", e.Globals, e.CSRPtr["nb"])
	}
}

func TestMergeShardsErrors(t *testing.T) {
	dup := NewSnapshot()
	dup.PutI32("globals", []int32{2, 5})
	dup2 := NewSnapshot()
	dup2.PutI32("globals", []int32{5})
	if _, err := MergeShards([]*Snapshot{dup, dup2}, nil); err == nil {
		t.Fatal("duplicate global across shards accepted")
	}

	short := NewSnapshot()
	short.PutI32("globals", []int32{0, 1})
	short.PutF64("x", []float64{1})
	if _, err := MergeShards([]*Snapshot{short}, []Field{{Name: "x", Kind: FieldF64, Width: 1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}

	badCSR := NewSnapshot()
	badCSR.PutI32("globals", []int32{0})
	badCSR.PutI32("nb.ptr", []int32{0, 5})
	badCSR.PutI32("nb.val", []int32{1})
	if _, err := MergeShards([]*Snapshot{badCSR}, []Field{{Name: "nb", Kind: FieldCSR}}); err == nil {
		t.Fatal("inconsistent CSR accepted")
	}
}

// TestSaveAndLoadCollective exercises the collective Save path on a few
// simulated ranks, then LoadShards under both the exact and the elastic
// assignment.
func TestSaveAndLoadCollective(t *testing.T) {
	base := t.TempDir()
	const P = 4
	comm.Run(P, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		snap := NewSnapshot()
		snap.PutI32("globals", []int32{int32(p.Rank())})
		snap.PutScalarI64("rank", int64(p.Rank()))
		dir := Save(p, base, "test", 4, 7, snap)
		if dir != StepDir(base, 7) {
			t.Errorf("Save dir = %q", dir)
		}
	})
	dir, ok := Latest(base)
	if !ok {
		t.Fatal("no sealed checkpoint found")
	}
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.App != "test" || m.NRanks != P || m.Step != 7 || m.N != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	// Exact assignment: rank r reads shard r.
	for r := 0; r < P; r++ {
		shards, err := LoadShards(dir, m, r, P)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 1 {
			t.Fatalf("rank %d got %d shards", r, len(shards))
		}
		if v, _ := shards[0].ScalarI64("rank"); v != int64(r) {
			t.Fatalf("rank %d read shard of rank %d", r, v)
		}
	}
	// Elastic shrink to 2 ranks: rank 0 gets shards {0, 2}, rank 1 {1, 3}.
	shards, err := LoadShards(dir, m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shards", len(shards))
	}
	// Elastic grow to 8 ranks: high ranks get nothing.
	shards, err = LoadShards(dir, m, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 0 {
		t.Fatalf("rank 7 of 8 got %d shards", len(shards))
	}
	// A corrupted shard must fail the manifest CRC cross-check.
	path := filepath.Join(dir, ShardName(1))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShards(dir, m, 1, P); err == nil {
		t.Fatal("corrupted shard accepted")
	}
}
