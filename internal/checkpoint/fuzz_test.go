package checkpoint

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns valid images plus a few hand-corrupted variants so the
// fuzzer starts near the interesting boundaries.
func fuzzSeeds(img []byte) [][]byte {
	seeds := [][]byte{img, nil, []byte("CHAOSCK1"), bytes.Repeat([]byte{0xff}, 64)}
	if len(img) > 4 {
		seeds = append(seeds, img[:len(img)/2], img[:len(img)-1])
		mut := append([]byte(nil), img...)
		mut[len(mut)/2] ^= 0x40
		seeds = append(seeds, mut)
	}
	return seeds
}

// FuzzShard asserts decodeSnapshot never panics: truncated, bit-flipped or
// arbitrary inputs must return errors, and accepted inputs must re-encode
// to the identical image (the container has a canonical form).
func FuzzShard(f *testing.F) {
	for _, s := range fuzzSeeds(sampleSnapshot().encode(kindShard)) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decodeSnapshot panicked: %v", r)
			}
		}()
		s, err := decodeSnapshot(data, kindShard)
		if err != nil {
			return
		}
		if !bytes.Equal(s.encode(kindShard), data) {
			t.Fatalf("accepted image does not re-encode canonically")
		}
	})
}

// FuzzManifest asserts DecodeManifest never panics on malformed input.
func FuzzManifest(f *testing.F) {
	img := encodeManifest(&manifest{app: "charmm", nRanks: 2, Step: 50, n: 100, shardCRCs: []uint32{1, 2}})
	for _, s := range fuzzSeeds(img) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DecodeManifest panicked: %v", r)
			}
		}()
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeManifest(m), data) {
			t.Fatalf("accepted manifest does not re-encode canonically")
		}
	})
}
