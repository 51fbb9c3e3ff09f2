package comm

import (
	"testing"

	"repro/internal/costmodel"
)

// Wall-clock micro-benchmarks of the transport and collectives: these
// measure the simulator's own overhead (real nanoseconds), not modeled
// machine time.

func BenchmarkPointToPoint(b *testing.B) {
	b.ReportAllocs()
	Run(2, costmodel.Uniform(1e-9), pingPong(b))
}

// BenchmarkPointToPointMeasured is BenchmarkPointToPoint under RunMeasured:
// each rank pinned to its own OS thread, the path benchmarks/run.sh times.
func BenchmarkPointToPointMeasured(b *testing.B) {
	b.ReportAllocs()
	RunMeasured(2, costmodel.Uniform(1e-9), pingPong(b))
}

// pingPong is a 2-rank body bouncing a 1 KiB message and an empty reply
// b.N times.
func pingPong(b *testing.B) func(p *Proc) {
	payload := make([]byte, 1024)
	return func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				p.Send(1, 1, payload)
				p.Recv(1, 2)
			}
		} else {
			for i := 0; i < b.N; i++ {
				p.Recv(0, 1)
				p.Send(0, 2, nil)
			}
		}
	}
}

func BenchmarkBarrier8(b *testing.B) {
	Run(8, costmodel.Uniform(1e-9), func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	})
}

func BenchmarkAllReduce8(b *testing.B) {
	vec := make([]float64, 64)
	Run(8, costmodel.Uniform(1e-9), func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.AllReduceF64(OpSum, vec)
		}
	})
}

func BenchmarkAllToAll8(b *testing.B) {
	b.ReportAllocs()
	Run(8, costmodel.Uniform(1e-9), func(p *Proc) {
		send := make([][]int32, 8)
		for r := range send {
			send[r] = make([]int32, 64)
		}
		var recv [][]int32
		for i := 0; i < b.N; i++ {
			recv = p.AllToAllI32(send, recv)
		}
	})
}

func BenchmarkCodecF64(b *testing.B) {
	xs := make([]float64, 4096)
	var buf []byte
	var dst []float64
	b.SetBytes(int64(8 * len(xs)))
	for i := 0; i < b.N; i++ {
		buf = appendWords(buf[:0], xs)
		dst = decodeInto[float64](dst, buf)
	}
}

func BenchmarkTCPPingPong(b *testing.B) {
	tr, err := NewTCPMesh(2)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	RunTransport(2, costmodel.Uniform(1e-9), tr, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				p.Send(1, 1, payload)
				p.Recv(1, 2)
			}
		} else {
			for i := 0; i < b.N; i++ {
				p.Recv(0, 1)
				p.Send(0, 2, nil)
			}
		}
	})
}
