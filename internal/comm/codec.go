package comm

import (
	"encoding/binary"
	"math"
	"slices"
)

// The codecs convert numeric slices to and from the little-endian wire
// format both transports carry. They are private to comm: callers speak in
// typed slices (SendF64, AllToAllI32, AllGatherI64, ...) and never see
// message bytes. The append* forms write into a caller-supplied buffer and
// the decode*Into forms into a caller-supplied slice, so steady-state
// typed sends and receives encode and decode without heap allocation.

// appendF64 appends the wire form of xs to b and returns the extended slice.
func appendF64(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeF64Into unpacks a buffer produced by appendF64 into dst's backing
// array, reallocating only if dst's capacity is too small, and returns the
// decoded slice (length exactly len(b)/8). dst may be nil.
func decodeF64Into(dst []float64, b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("comm: decodeF64Into on buffer whose length is not a multiple of 8")
	}
	n := len(b) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// appendI32 appends the wire form of xs to b and returns the extended slice.
func appendI32(b []byte, xs []int32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// decodeI32Into unpacks a buffer produced by appendI32 into dst's backing
// array (see decodeF64Into).
func decodeI32Into(dst []int32, b []byte) []int32 {
	if len(b)%4 != 0 {
		panic("comm: decodeI32Into on buffer whose length is not a multiple of 4")
	}
	n := len(b) / 4
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return dst
}

// appendI64 appends the wire form of xs to b and returns the extended slice.
func appendI64(b []byte, xs []int64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// decodeI64Into unpacks a buffer produced by appendI64 into dst's backing
// array (see decodeF64Into).
func decodeI64Into(dst []int64, b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("comm: decodeI64Into on buffer whose length is not a multiple of 8")
	}
	n := len(b) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
