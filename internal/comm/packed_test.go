package comm

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/costmodel"
)

// packedExchange has rank 1 send the same values twice, once by sendWords (the
// collectives' staged send) and once by PackF64 + SendPacked (and the I32
// pair likewise); rank 0 receives the first of each raw and the second
// through a view, and checks that the wire bytes are the codec's and the
// view holds the values.
func packedExchange(t *testing.T, p *Proc, label string) {
	xs := []float64{1.5, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff4dead0000beef), 5e-324}
	is := []int32{math.MinInt32, -1, 0, 7, math.MaxInt32}
	if p.Rank() == 1 {
		sendWords[float64](p, 0, 1, xs)
		copy(p.PackF64(len(xs)), xs)
		p.SendPacked(0, 1)
		sendWords[int32](p, 0, 2, is)
		copy(p.PackI32(len(is)), is)
		p.SendPacked(0, 2)
		p.PackF64(0)
		p.SendPacked(0, 3)
		return
	}
	wireF, wireI := p.Recv(1, 1), p.Recv(1, 2)
	if !bytes.Equal(wireF, appendWords(nil, xs)) || !bytes.Equal(wireI, appendWords(nil, is)) {
		t.Errorf("%s: the typed sends' wire bytes are not the codecs'", label)
	}
	vf := p.RecvF64View(1, 1)
	if !bytes.Equal(appendWords(nil, vf), wireF) {
		t.Errorf("%s: packed float64s arrived as %v, want %v", label, vf, xs)
	}
	p.ReleaseView()
	if vi := p.RecvI32View(1, 2); !slices.Equal(vi, is) {
		t.Errorf("%s: packed int32s arrived as %v, want %v", label, vi, is)
	}
	p.ReleaseView()
	if v := p.RecvF64View(1, 3); len(v) != 0 {
		t.Errorf("%s: an empty packed message arrived with %d values", label, len(v))
	}
	p.ReleaseView()
}

// TestPackedWire: a packed message is on the wire what the typed send of
// the same values is, over the in-memory and TCP transports, and with the
// value loops forced (the big-endian path: scratch packing, decoded views).
func TestPackedWire(t *testing.T) {
	for _, loops := range []bool{false, true} {
		restore := func() {}
		if loops {
			restore = ForceWireLoops()
		}
		Run(2, costmodel.Uniform(1e-6), func(p *Proc) { packedExchange(t, p, "mem") })
		runTCP(t, 2, func(p *Proc) { packedExchange(t, p, "tcp") })
		restore()
	}
}

// TestViewAliasesOrDecodes: a view of an aligned payload aliases the payload
// itself; one of a payload at an odd offset (a raw Send of a sliced buffer)
// takes the decode fallback into scratch and gives the same values.
func TestViewAliasesOrDecodes(t *testing.T) {
	xs := []float64{3, -2.25, math.Float64frombits(0x7ff4dead0000beef), 1e300}
	aligned := appendWords(make([]byte, 0, 64), xs)
	odd := appendWords(make([]byte, 1, 64), xs)[1:]
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		if p.Rank() == 1 {
			p.Send(0, 1, aligned)
			p.Send(0, 1, odd)
			return
		}
		for _, sent := range [][]byte{aligned, odd} {
			at := uintptr(unsafe.Pointer(unsafe.SliceData(sent)))
			v := p.RecvF64View(1, 1)
			if !bytes.Equal(bytesOf(v), sent) {
				t.Errorf("view of a payload at offset %d: %v, want %v", at%8, v, xs)
			}
			aliased := uintptr(unsafe.Pointer(unsafe.SliceData(v))) == at
			decoded := unsafe.SliceData(v) == unsafe.SliceData(p.wire.viewScratchF)
			if aliased != (at%8 == 0) || decoded == aliased {
				t.Errorf("view of a payload at offset %d: aliases it %v, decoded into scratch %v", at%8, aliased, decoded)
			}
			p.ReleaseView()
		}
	})
}

// TestPackViewMisuse: one packed message and one live view at a time.
func TestPackViewMisuse(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if v, ok := recover().(string); !ok || !strings.Contains(v, want) {
				t.Errorf("%s: panic %q, want one mentioning %q", what, v, want)
			}
		}()
		f()
	}
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		if p.Rank() == 1 {
			sendWords[float64](p, 0, 1, []float64{1})
			sendWords[float64](p, 0, 1, []float64{2})
			return
		}
		mustPanic("SendPacked before any pack", "nothing packed", func() { p.SendPacked(1, 1) })
		p.PackI32(3)
		mustPanic("a second pack", "not yet sent", func() { p.PackF64(1) })
		p.ReleaseView() // no live view: a no-op
		if v := p.RecvF64View(1, 1); v[0] != 1 {
			t.Errorf("first view holds %v", v)
		}
		mustPanic("a second view", "still live", func() { p.RecvF64View(1, 1) })
		p.ReleaseView()
		if v := p.RecvF64View(1, 1); v[0] != 2 {
			t.Errorf("second view holds %v", v)
		}
		p.ReleaseView()
	})
}

// TestPackedRoundTripAllocs: once warm, a packed ping-pong placed from views
// allocates nothing on the in-memory transport.
func TestPackedRoundTripAllocs(t *testing.T) {
	Run(2, costmodel.Uniform(1e-9), func(p *Proc) {
		other, sum := 1-p.Rank(), 0.0
		send := func() {
			buf := p.PackF64(32)
			for i := range buf {
				buf[i] = float64(i)
			}
			p.SendPacked(other, 9)
		}
		recv := func() {
			for _, v := range p.RecvF64View(other, 9) {
				sum += v
			}
			p.ReleaseView()
		}
		step := func() {
			if p.Rank() == 0 {
				send()
				recv()
			} else {
				recv()
				send()
			}
		}
		for i := 0; i < 4; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
			t.Errorf("rank %d: packed ping-pong allocates %.1f per round", p.Rank(), allocs)
		}
	})
}
