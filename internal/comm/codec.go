package comm

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// The codecs convert numeric slices to and from the little-endian wire
// format both transports carry. They are private to comm: callers speak in
// typed slices (SendF64, AllToAllI32, AllGatherI64, ...) and never see
// message bytes. The append* forms write into a caller-supplied buffer and
// the decode*Into forms into a caller-supplied slice, so steady-state
// typed sends and receives encode and decode without heap allocation.
//
// On a little-endian host a slice's memory already is its wire form, so
// each codec is one copy of the slice's bytes (a memmove); elsewhere it is
// a loop over the values.

// nativeWire reports that this host lays numbers out in the wire's
// little-endian order. Tests set it to false to run the value loops (and the
// decode fallback of the views) on a little-endian host.
var nativeWire = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// word is an element type the wire carries.
type word interface{ float64 | int32 | int64 }

// sizeOf is the width of T in bytes, on the wire and in memory.
func sizeOf[T word]() int { return int(unsafe.Sizeof(*new(T))) }

// bytesOf returns the memory of xs as bytes (aliasing it).
func bytesOf[T word](xs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*sizeOf[T]())
}

// viewOf returns b as a []T aliasing it, when b holds a whole number of
// values in host order at an address aligned for T; ok is false otherwise,
// and the caller decodes instead.
func viewOf[T word](b []byte) (v []T, ok bool) {
	w := sizeOf[T]()
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !nativeWire || len(b)%w != 0 || uintptr(p)%uintptr(w) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/w), true
}

// sizedFor returns dst resized to the values of a payload of len(b) bytes,
// w bytes each, reusing dst's backing array when it is large enough. It
// panics with misfit when len(b) is not a multiple of w.
func sizedFor[T word](dst []T, b []byte, w int, misfit string) []T {
	if len(b)%w != 0 {
		panic(misfit)
	}
	n := len(b) / w
	return slices.Grow(dst[:0], n)[:n]
}

// appendF64 appends the wire form of xs to b and returns the extended slice.
func appendF64(b []byte, xs []float64) []byte {
	if nativeWire {
		return append(b, bytesOf(xs)...)
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeF64Into unpacks a buffer produced by appendF64 into dst's backing
// array, reallocating only if dst's capacity is too small, and returns the
// decoded slice (length exactly len(b)/8). dst may be nil; b may sit at any
// address.
func decodeF64Into(dst []float64, b []byte) []float64 {
	dst = sizedFor(dst, b, 8, "comm: decodeF64Into on buffer whose length is not a multiple of 8")
	if nativeWire {
		copy(bytesOf(dst), b)
		return dst
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// appendI32 appends the wire form of xs to b and returns the extended slice.
func appendI32(b []byte, xs []int32) []byte {
	if nativeWire {
		return append(b, bytesOf(xs)...)
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// decodeI32Into unpacks a buffer produced by appendI32 into dst's backing
// array (see decodeF64Into).
func decodeI32Into(dst []int32, b []byte) []int32 {
	dst = sizedFor(dst, b, 4, "comm: decodeI32Into on buffer whose length is not a multiple of 4")
	if nativeWire {
		copy(bytesOf(dst), b)
		return dst
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return dst
}

// appendI64 appends the wire form of xs to b and returns the extended slice.
func appendI64(b []byte, xs []int64) []byte {
	if nativeWire {
		return append(b, bytesOf(xs)...)
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// decodeI64Into unpacks a buffer produced by appendI64 into dst's backing
// array (see decodeF64Into).
func decodeI64Into(dst []int64, b []byte) []int64 {
	dst = sizedFor(dst, b, 8, "comm: decodeI64Into on buffer whose length is not a multiple of 8")
	if nativeWire {
		copy(bytesOf(dst), b)
		return dst
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
