package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// decodeGuarded calls decode and reports whether it panicked. A panic is the
// documented response to a misaligned buffer; anything else must decode.
func decodeGuarded(decode func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	decode()
	return false
}

// FuzzDecodeInto feeds arbitrary byte strings — truncated, misaligned,
// oversized — to the typed decoders. The contract under attack: an aligned
// buffer decodes to exactly len(b)/width elements that re-encode to the same
// bytes; a misaligned buffer panics with the documented message; and no
// input may ever read or write out of bounds (the fuzzer runs under the race
// and bounds-checking runtime, so OOB shows up as a crash, not a pass).
func FuzzDecodeInto(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 8*257)) // spans arena capacity classes
	f.Add(appendF64(nil, []float64{0, 1, math.Inf(1), math.NaN(), -0.0}))
	f.Add(appendI32(nil, []int32{math.MinInt32, -1, 0, math.MaxInt32}))
	f.Add(appendI64(nil, []int64{math.MinInt64, -1, 0, math.MaxInt64}))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Reused destinations with stale contents and spare capacity: the
		// decoders must overwrite, never blend with or run past, old data.
		dstF := make([]float64, 3, 16)
		dstI32 := make([]int32, 3, 16)
		dstI64 := make([]int64, 3, 16)
		for i := range dstF {
			dstF[i], dstI32[i], dstI64[i] = -1, -1, -1
		}

		var outF []float64
		if panicked := decodeGuarded(func() { outF = decodeF64Into(dstF, b) }); panicked != (len(b)%8 != 0) {
			t.Fatalf("decodeF64Into(%d bytes): panicked=%v, want %v", len(b), panicked, len(b)%8 != 0)
		} else if !panicked {
			if len(outF) != len(b)/8 {
				t.Fatalf("decodeF64Into(%d bytes): %d elements, want %d", len(b), len(outF), len(b)/8)
			}
			if got := appendF64(nil, outF); string(got) != string(b) {
				t.Fatalf("decodeF64Into did not round-trip %d bytes", len(b))
			}
		}

		var outI32 []int32
		if panicked := decodeGuarded(func() { outI32 = decodeI32Into(dstI32, b) }); panicked != (len(b)%4 != 0) {
			t.Fatalf("decodeI32Into(%d bytes): panicked=%v, want %v", len(b), panicked, len(b)%4 != 0)
		} else if !panicked {
			if len(outI32) != len(b)/4 {
				t.Fatalf("decodeI32Into(%d bytes): %d elements, want %d", len(b), len(outI32), len(b)/4)
			}
			if got := appendI32(nil, outI32); string(got) != string(b) {
				t.Fatalf("decodeI32Into did not round-trip %d bytes", len(b))
			}
		}

		var outI64 []int64
		if panicked := decodeGuarded(func() { outI64 = decodeI64Into(dstI64, b) }); panicked != (len(b)%8 != 0) {
			t.Fatalf("decodeI64Into(%d bytes): panicked=%v, want %v", len(b), panicked, len(b)%8 != 0)
		} else if !panicked {
			if len(outI64) != len(b)/8 {
				t.Fatalf("decodeI64Into(%d bytes): %d elements, want %d", len(b), len(outI64), len(b)/8)
			}
			if got := appendI64(nil, outI64); string(got) != string(b) {
				t.Fatalf("decodeI64Into did not round-trip %d bytes", len(b))
			}
		}
	})
}

// FuzzCodecPaths holds the memmove codecs to the value loops they replace on
// a little-endian host: for each element type, the values decoded from the
// input are bit for bit the same on both paths, both paths encode them back
// to exactly the input (so NaN payloads, signed zeros, infinities and
// subnormals survive), and both append after an odd-length prefix alike.
func FuzzCodecPaths(f *testing.F) {
	var specials []byte
	for _, bits := range []uint64{
		0x7ff0000000000001, 0x7ff8000000000000, 0x7ff4dead0000beef, 0xfff0000000000001, 0xffffffffffffffff, // NaNs
		0, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(-1.5),
	} {
		specials = binary.LittleEndian.AppendUint64(specials, bits)
	}
	f.Add(specials)
	f.Add(specials[4:])               // every word straddles two float64s
	f.Add(specials[:len(specials)-3]) // a ragged tail each type drops
	var ints []byte
	for _, v := range []uint32{0x80000000, 0xffffffff, 0, 1, 0x7fffffff, 0xdeadbeef} {
		ints = binary.LittleEndian.AppendUint32(ints, v)
	}
	f.Add(ints)
	f.Add([]byte{})
	f.Add(make([]byte, 8*257))
	f.Fuzz(func(t *testing.T, b []byte) {
		if !nativeWire {
			t.Skip("big-endian host: the codecs have no memmove path to compare")
		}
		checkCodecPaths(t, b, appendF64, decodeF64Into)
		checkCodecPaths(t, b, appendI32, decodeI32Into)
		checkCodecPaths(t, b, appendI64, decodeI64Into)
	})
}

func checkCodecPaths[T word](t *testing.T, b []byte, appendT func([]byte, []T) []byte, decode func([]T, []byte) []T) {
	t.Helper()
	w := sizeOf[T]()
	b = b[:len(b)/w*w]
	var loopXs []T
	var loopB, loopPre []byte
	restore := ForceWireLoops()
	loopXs = decode(nil, b)
	loopB = appendT(nil, loopXs)
	loopPre = appendT([]byte{0xa5}, loopXs)
	restore()
	memXs := decode(make([]T, 1, 3), b)
	if !bytes.Equal(bytesOf(memXs), bytesOf(loopXs)) {
		t.Fatalf("width %d: memmove and loop decode %d bytes to different values", w, len(b))
	}
	if got := appendT(nil, memXs); !bytes.Equal(got, b) || !bytes.Equal(loopB, b) {
		t.Fatalf("width %d: %d bytes do not round-trip bit for bit (memmove %v, loop %v)", w, len(b), bytes.Equal(got, b), bytes.Equal(loopB, b))
	}
	if got := appendT([]byte{0xa5}, loopXs); !bytes.Equal(got, loopPre) {
		t.Fatalf("width %d: memmove and loop append differently after an odd prefix", w)
	}
}

// gatherRecord is one (rank, payload) record of a gather frame; length
// overrides the header's byte count when non-negative.
func gatherRecord(frame []byte, rank uint32, length int, payload []byte) []byte {
	n := uint32(len(payload))
	if length >= 0 {
		n = uint32(length)
	}
	frame = binary.LittleEndian.AppendUint32(frame, rank)
	frame = binary.LittleEndian.AppendUint32(frame, n)
	return append(frame, payload...)
}

// FuzzGatherFrame feeds arbitrary frames to the all-gather's decoder. A
// frame arrives over TCP from another process, so a bad one must panic with
// a "comm: gather frame" message, never with a runtime bounds error and
// never by returning a missing rank. A frame that decodes must be exactly
// one record per rank, in rank order, each the wire form of the list
// returned for it, and the flat result their concatenation.
func FuzzGatherFrame(f *testing.F) {
	one := appendI32(nil, []int32{7})
	two := appendI32(nil, []int32{1, -2})
	valid := gatherRecord(gatherRecord(gatherRecord(nil, 0, -1, two), 1, -1, nil), 2, -1, one)
	f.Add(valid, uint8(3))
	f.Add(gatherRecord(gatherRecord(gatherRecord(nil, 0, -1, two), 2, -1, nil), 1, -1, one), uint8(3)) // out of rank order
	f.Add(valid[:len(valid)-2], uint8(3))                                                              // truncated payload
	f.Add(valid[:5], uint8(3))                                                                         // truncated header
	f.Add(append(valid[:len(valid):len(valid)], 1, 2, 3), uint8(3))                                    // trailing partial header
	f.Add(gatherRecord(nil, 0, 1<<20, one), uint8(1))                                                  // overlong length
	f.Add(gatherRecord(nil, 0, 3, one), uint8(1))                                                      // length not a multiple of the width
	f.Add(gatherRecord(gatherRecord(nil, 0, -1, one), 0, -1, two), uint8(2))                           // duplicate rank
	f.Add(append(valid, gatherRecord(nil, 1, -1, two)...), uint8(3))                                   // duplicate rank, none missing
	f.Add(gatherRecord(nil, 1, -1, one), uint8(2))                                                     // missing rank
	f.Add(gatherRecord(nil, 5, -1, one), uint8(2))                                                     // rank out of range
	f.Add([]byte{}, uint8(1))                                                                          // no record at all
	f.Add(gatherRecord(nil, 0, -1, make([]byte, 16)), uint8(1))
	f.Fuzz(func(t *testing.T, frame []byte, size uint8) {
		n := max(1, int(size%9)) // 1 to 8 ranks
		checkGatherFrame(t, frame, n, 4, appendI32, decodeI32Into)
		checkGatherFrame(t, frame, n, 8, appendF64, decodeF64Into)
	})
}

func checkGatherFrame[T any](t *testing.T, frame []byte, size, w int,
	appendT func([]byte, []T) []byte, decode func([]T, []byte) []T) {
	t.Helper()
	var out [][]T
	var flat []T
	func() {
		defer func() {
			if v := recover(); v != nil {
				if msg := fmt.Sprint(v); !strings.HasPrefix(msg, "comm: gather frame ") {
					t.Fatalf("width %d, %d ranks: panic %q", w, size, msg)
				}
			}
		}()
		lists := make([][]T, size)
		flat = decodeFrame(nil, lists, frame, size, w, decode)
		out = lists
	}()
	if out == nil {
		return
	}
	if got, want := appendT(nil, flat), appendT(nil, slices.Concat(out...)); !bytes.Equal(got, want) {
		t.Fatalf("width %d: the flat result is not the lists' concatenation", w)
	}
	if len(out) != size {
		t.Fatalf("width %d: %d lists for %d ranks", w, len(out), size)
	}
	for r, xs := range out {
		if xs == nil {
			t.Fatalf("width %d: decoded without rank %d", w, r)
		}
	}
	off := 0
	for r := range out {
		rank := binary.LittleEndian.Uint32(frame[off:])
		if int(rank) != r {
			t.Fatalf("width %d: record %d names rank %d", w, r, rank)
		}
		rec := gatherRecord(nil, rank, -1, appendT(nil, out[rank]))
		if off+len(rec) > len(frame) || string(frame[off:off+len(rec)]) != string(rec) {
			t.Fatalf("width %d: rank %d's list does not re-encode to its record at byte %d", w, rank, off)
		}
		off += len(rec)
	}
	if off != len(frame) {
		t.Fatalf("width %d: %d records end at byte %d of %d", w, size, off, len(frame))
	}
}
