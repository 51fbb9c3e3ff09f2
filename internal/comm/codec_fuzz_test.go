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
	f.Add(appendWords(nil, []float64{0, 1, math.Inf(1), math.NaN(), -0.0}))
	f.Add(appendWords(nil, []int32{math.MinInt32, -1, 0, math.MaxInt32}))
	f.Add(appendWords(nil, []int64{math.MinInt64, -1, 0, math.MaxInt64}))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Each word type, on the host's path and on the value loops.
		for _, loops := range []bool{false, true} {
			func() {
				if loops {
					defer ForceWireLoops()()
				}
				checkDecodeInto[float64](t, b)
				checkDecodeInto[int32](t, b)
				checkDecodeInto[int64](t, b)
			}()
		}
	})
}

// checkDecodeInto decodes b as T into a reused destination with stale
// contents and spare capacity: decodeInto must overwrite, never blend with
// or run past, old data.
func checkDecodeInto[T word](t *testing.T, b []byte) {
	t.Helper()
	w := sizeOf[T]()
	dst := make([]T, 3, 16)
	for i := range dst {
		dst[i] = -1
	}
	var out []T
	misfit := len(b)%w != 0
	if panicked := decodeGuarded(func() { out = decodeInto(dst, b) }); panicked != misfit {
		t.Fatalf("decodeInto, width %d, native %v (%d bytes): panicked=%v, want %v", w, nativeWire, len(b), panicked, misfit)
	} else if !panicked {
		if len(out) != len(b)/w {
			t.Fatalf("decodeInto, width %d, native %v (%d bytes): %d elements, want %d", w, nativeWire, len(b), len(out), len(b)/w)
		}
		if got := appendWords(nil, out); string(got) != string(b) {
			t.Fatalf("decodeInto, width %d, native %v: %d bytes do not round-trip", w, nativeWire, len(b))
		}
	}
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
		checkCodecPaths[float64](t, b)
		checkCodecPaths[int32](t, b)
		checkCodecPaths[int64](t, b)
	})
}

func checkCodecPaths[T word](t *testing.T, b []byte) {
	t.Helper()
	w := sizeOf[T]()
	b = b[:len(b)/w*w]
	var loopXs []T
	var loopB, loopPre []byte
	restore := ForceWireLoops()
	loopXs = decodeInto[T](nil, b)
	loopB = appendWords(nil, loopXs)
	loopPre = appendWords([]byte{0xa5}, loopXs)
	restore()
	memXs := decodeInto(make([]T, 1, 3), b)
	if !bytes.Equal(bytesOf(memXs), bytesOf(loopXs)) {
		t.Fatalf("width %d: memmove and loop decode %d bytes to different values", w, len(b))
	}
	if got := appendWords(nil, memXs); !bytes.Equal(got, b) || !bytes.Equal(loopB, b) {
		t.Fatalf("width %d: %d bytes do not round-trip bit for bit (memmove %v, loop %v)", w, len(b), bytes.Equal(got, b), bytes.Equal(loopB, b))
	}
	if got := appendWords([]byte{0xa5}, loopXs); !bytes.Equal(got, loopPre) {
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
	one := appendWords(nil, []int32{7})
	two := appendWords(nil, []int32{1, -2})
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
		checkGatherFrame[int32](t, frame, n)
		checkGatherFrame[float64](t, frame, n)
	})
}

func checkGatherFrame[T word](t *testing.T, frame []byte, size int) {
	t.Helper()
	w := sizeOf[T]()
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
		flat = decodeFrame(nil, lists, frame, size)
		out = lists
	}()
	if out == nil {
		return
	}
	if got, want := appendWords(nil, flat), appendWords(nil, slices.Concat(out...)); !bytes.Equal(got, want) {
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
		rec := gatherRecord(nil, rank, -1, appendWords(nil, out[rank]))
		if off+len(rec) > len(frame) || string(frame[off:off+len(rec)]) != string(rec) {
			t.Fatalf("width %d: rank %d's list does not re-encode to its record at byte %d", w, rank, off)
		}
		off += len(rec)
	}
	if off != len(frame) {
		t.Fatalf("width %d: %d records end at byte %d of %d", w, size, off, len(frame))
	}
}
