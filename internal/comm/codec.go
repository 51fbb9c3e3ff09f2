package comm

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// The codec converts typed slices to and from the little-endian wire format
// both transports carry. It is private to comm: callers speak in typed
// slices (PackF64, RecvI32View, AllToAllI32, AllGatherI64, ...) and never
// see message bytes. appendWords writes into a caller-supplied buffer and
// decodeInto into a caller-supplied slice, so steady-state typed sends and
// receives encode and decode without heap allocation.
//
// On a little-endian host a slice's memory already is its wire form, so
// each call is one copy of the slice's bytes (a memmove); elsewhere it is a
// loop over the values, each moved as the unsigned integer of its width
// (for a float64, its IEEE 754 bits).

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

// appendWords appends the wire form of xs to b and returns the extended
// slice.
func appendWords[T word](b []byte, xs []T) []byte {
	if nativeWire {
		return append(b, bytesOf(xs)...)
	}
	for i := range xs {
		if p := unsafe.Pointer(&xs[i]); sizeOf[T]() == 4 {
			b = binary.LittleEndian.AppendUint32(b, *(*uint32)(p))
		} else {
			b = binary.LittleEndian.AppendUint64(b, *(*uint64)(p))
		}
	}
	return b
}

// decodeInto unpacks a buffer produced by appendWords into dst's backing
// array, reallocating only if dst's capacity is too small, and returns the
// decoded slice (length exactly len(b) / sizeOf[T]). dst may be nil; b may
// sit at any address. It panics when len(b) is not a whole number of values;
// the message is a constant, so the check costs no formatting per call.
func decodeInto[T word](dst []T, b []byte) []T {
	w := sizeOf[T]()
	if len(b)%w != 0 {
		panic("comm: decodeInto on a buffer whose length is not a whole number of values")
	}
	n := len(b) / w
	dst = slices.Grow(dst[:0], n)[:n]
	if nativeWire {
		copy(bytesOf(dst), b)
		return dst
	}
	for i := range dst {
		if p := unsafe.Pointer(&dst[i]); w == 4 {
			*(*uint32)(p) = binary.LittleEndian.Uint32(b[4*i:])
		} else {
			*(*uint64)(p) = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return dst
}
