package comm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/costmodel"
)

// TestAppendDecodeRoundTrip exercises the in-place codec variants across many
// random lengths and values, including reuse of the destination buffer.
func TestAppendDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dstF []float64
	var dstI32 []int32
	var dstI64 []int64
	prefix := []byte{0xAB, 0xCD}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(65)
		fs := make([]float64, n)
		i32s := make([]int32, n)
		i64s := make([]int64, n)
		for i := 0; i < n; i++ {
			fs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			i32s[i] = int32(rng.Uint32())
			i64s[i] = int64(rng.Uint64())
		}
		if n > 0 && trial%7 == 0 {
			fs[0] = math.Inf(1)
			fs[n-1] = 0.0
		}

		// Append must extend, not clobber, an existing prefix.
		b := appendWords(append([]byte(nil), prefix...), fs)
		if !bytes.HasPrefix(b, prefix) || len(b) != 2+8*n {
			t.Fatalf("appendWords clobbered prefix or wrong length: %d", len(b))
		}
		dstF = decodeInto[float64](dstF, b[2:])
		if !reflect.DeepEqual(dstF, fs) && n > 0 {
			t.Fatalf("F64 round trip: got %v want %v", dstF, fs)
		}

		b32 := appendWords(append([]byte(nil), prefix...), i32s)
		if !bytes.HasPrefix(b32, prefix) || len(b32) != 2+4*n {
			t.Fatalf("appendWords clobbered prefix or wrong length: %d", len(b32))
		}
		dstI32 = decodeInto[int32](dstI32, b32[2:])
		if n > 0 && !reflect.DeepEqual(dstI32, i32s) {
			t.Fatalf("I32 round trip: got %v want %v", dstI32, i32s)
		}

		b64 := appendWords(append([]byte(nil), prefix...), i64s)
		if !bytes.HasPrefix(b64, prefix) || len(b64) != 2+8*n {
			t.Fatalf("appendWords clobbered prefix or wrong length: %d", len(b64))
		}
		dstI64 = decodeInto[int64](dstI64, b64[2:])
		if n > 0 && !reflect.DeepEqual(dstI64, i64s) {
			t.Fatalf("I64 round trip: got %v want %v", dstI64, i64s)
		}
	}
}

// TestDecodeIntoReusesCapacity checks the no-reallocation contract: a large
// enough dst must be reused, a too-small one replaced.
func TestDecodeIntoReusesCapacity(t *testing.T) {
	big := make([]float64, 100)
	got := decodeInto[float64](big, appendWords(nil, []float64{1, 2, 3}))
	if len(got) != 3 || &got[0] != &big[0] {
		t.Error("decodeInto did not reuse a large enough dst")
	}
	small := make([]float64, 1)
	got = decodeInto[float64](small, appendWords(nil, []float64{1, 2, 3}))
	if len(got) != 3 || got[1] != 2 {
		t.Error("decodeInto failed to grow a too-small dst")
	}
	if gi := decodeInto[int32](make([]int32, 0, 8), appendWords(nil, []int32{-5})); len(gi) != 1 || gi[0] != -5 {
		t.Errorf("decodeInto: %v", gi)
	}
}

func TestDecodeIntoOddLengthPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"F64", func() { decodeInto[float64](nil, make([]byte, 9)) }},
		{"I32", func() { decodeInto[int32](nil, make([]byte, 6)) }},
		{"I64", func() { decodeInto[int64](nil, make([]byte, 12)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decode%sInto accepted a misaligned buffer", c.name)
				}
			}()
			c.f()
		}()
	}
}

// pooledExchange is an SPMD body exercising the pooled send/recv paths with
// asymmetric sizes and interleaved raw sends; it returns everything rank 0
// received, so mem and TCP transports can be compared for parity.
func pooledExchange(p *Proc, rounds int) [][]float64 {
	var got [][]float64
	rng := rand.New(rand.NewSource(int64(17)))
	var scratch []float64
	for round := 0; round < rounds; round++ {
		n := 1 + (round*13)%57
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() // same stream on all ranks
		}
		if p.Rank() == 1 {
			sendWords[float64](p, 0, 5, xs)
			sendWords[int32](p, 0, 6, []int32{int32(round), int32(n)})
			sendWords[int64](p, 0, 7, []int64{int64(round) << 32})
		} else if p.Rank() == 0 {
			scratch = recvWords[float64](p, 1, 5, scratch)
			got = append(got, append([]float64(nil), scratch...))
			hdr := recvWords[int32](p, 1, 6, nil)
			if hdr[0] != int32(round) || hdr[1] != int32(n) {
				panic("pooled i32 header corrupted")
			}
			if v := recvWords[int64](p, 1, 7, nil); v[0] != int64(round)<<32 {
				panic("pooled i64 payload corrupted")
			}
		}
	}
	return got
}

// TestPooledSendParityMemTCP runs the same pooled exchange over the in-memory
// and loopback-TCP transports and requires byte-identical results: buffer
// recycling must be invisible to receivers on both transports.
func TestPooledSendParityMemTCP(t *testing.T) {
	const rounds = 40
	var memGot, tcpGot [][]float64
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		g := pooledExchange(p, rounds)
		if p.Rank() == 0 {
			memGot = g
		}
	})
	runTCP(t, 2, func(p *Proc) {
		g := pooledExchange(p, rounds)
		if p.Rank() == 0 {
			tcpGot = g
		}
	})
	if len(memGot) != rounds || !reflect.DeepEqual(memGot, tcpGot) {
		t.Fatalf("pooled exchange differs between transports: mem %d rounds, tcp %d rounds", len(memGot), len(tcpGot))
	}
}

// TestPooledRoundTripRecycles checks that the arena actually recycles: after
// a warm-up, a steady pooled ping-pong performs no allocations on the
// in-memory transport.
func TestPooledRoundTripRecycles(t *testing.T) {
	Run(2, costmodel.Uniform(1e-9), func(p *Proc) {
		xs := make([]float64, 32)
		var scratch []float64
		step := func() {
			if p.Rank() == 0 {
				sendWords[float64](p, 1, 9, xs)
				scratch = recvWords[float64](p, 1, 9, scratch)
			} else {
				scratch = recvWords[float64](p, 0, 9, scratch)
				sendWords[float64](p, 0, 9, xs)
			}
		}
		for i := 0; i < 4; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(100, step)
		if allocs > 0 {
			t.Errorf("rank %d: pooled ping-pong allocates %.1f per round", p.Rank(), allocs)
		}
	})
}

// TestArenaBestFit checks a small request leaves the large buffers alone: a
// 64-byte get between a 1 MiB put and the next 1 MiB get must not take the
// 1 MiB buffer, whichever was returned last.
func TestArenaBestFit(t *testing.T) {
	for _, smallLast := range []bool{false, true} {
		var a byteArena
		big, small := a.get(1<<20), a.get(64)
		bigAt := &big[:1][0]
		if smallLast {
			a.put(big)
			a.put(small)
		} else {
			a.put(small)
			a.put(big)
		}
		if got := a.get(64); cap(got) != 64 {
			t.Errorf("smallLast=%v: get(64) took a buffer of capacity %d", smallLast, cap(got))
		}
		if got := a.get(1 << 20); cap(got) != 1<<20 || &got[:1][0] != bigAt {
			t.Errorf("smallLast=%v: get(1 MiB) after get(64) did not reuse the free 1 MiB buffer", smallLast)
		}
	}
}
