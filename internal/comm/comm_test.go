package comm

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
)

func TestCodecRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		got := decodeInto[float64](nil, appendWords(nil, xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(math.IsNaN(got[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("float64 roundtrip: %v", err)
	}
	g := func(xs []int32) bool {
		got := decodeInto[int32](nil, appendWords(nil, xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("int32 roundtrip: %v", err)
	}
	h := func(xs []int64) bool {
		got := decodeInto[int64](nil, appendWords(nil, xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(h, nil); err != nil {
		t.Errorf("int64 roundtrip: %v", err)
	}
}

func TestDecodeBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("decodeInto on odd-length buffer did not panic")
		}
	}()
	decodeInto[float64](nil, make([]byte, 7))
}

func TestPointToPoint(t *testing.T) {
	m := costmodel.Uniform(1e-6)
	Run(2, m, func(p *Proc) {
		if p.Rank() == 0 {
			sendWords[float64](p, 1, 7, []float64{1, 2, 3})
			got := recvWords[float64](p, 1, 8, nil)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("rank 0 got %v, want [42]", got)
			}
		} else {
			got := recvWords[float64](p, 0, 7, nil)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 got %v, want [1 2 3]", got)
			}
			sendWords[float64](p, 0, 8, []float64{42})
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// Sender emits tag 1 then tag 2; receiver asks for tag 2 first. The
	// mailbox must hold the tag-1 message until requested.
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		if p.Rank() == 0 {
			sendWords[int32](p, 1, 1, []int32{11})
			sendWords[int32](p, 1, 2, []int32{22})
		} else {
			if got := recvWords[int32](p, 0, 2, nil); got[0] != 22 {
				t.Errorf("tag 2 payload = %v, want 22", got[0])
			}
			if got := recvWords[int32](p, 0, 1, nil); got[0] != 11 {
				t.Errorf("tag 1 payload = %v, want 11", got[0])
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	const n = 100
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				sendWords[int32](p, 1, 5, []int32{int32(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := recvWords[int32](p, 0, 5, nil)[0]; got != int32(i) {
					t.Fatalf("message %d arrived with payload %d", i, got)
				}
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := costmodel.IPSC860()
	rep := Run(4, m, func(p *Proc) {
		// Rank 2 does a lot of work; others none.
		if p.Rank() == 2 {
			p.Compute(1.0)
		}
		p.Barrier()
	})
	for r, c := range rep.Clocks {
		if c < 1.0 {
			t.Errorf("rank %d clock %v < 1.0 after barrier", r, c)
		}
		if c > 1.0+0.01 {
			t.Errorf("rank %d clock %v far above 1.0 (barrier too costly)", r, c)
		}
	}
}

func testCollectiveSizes(t *testing.T, f func(t *testing.T, n int)) {
	t.Helper()
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		f(t, n)
	}
}

func TestAllGather(t *testing.T) {
	testCollectiveSizes(t, func(t *testing.T, n int) {
		Run(n, costmodel.Uniform(1e-6), func(p *Proc) {
			got := p.AllGatherI64([]int64{int64(p.Rank() * 3)})
			for r := 0; r < n; r++ {
				if len(got[r]) != 1 || got[r][0] != int64(r*3) {
					t.Errorf("n=%d rank=%d: entry %d = %v, want [%d]", n, p.Rank(), r, got[r], r*3)
				}
			}
			// Variable-length lists: rank r sends r+1 values.
			mine := make([]int32, p.Rank()+1)
			for i := range mine {
				mine[i] = int32(p.Rank()*100 + i)
			}
			all := p.AllGatherI32(mine)
			mine[0] = -1 // the result must not alias the caller's list
			for r := 0; r < n; r++ {
				if len(all[r]) != r+1 {
					t.Errorf("n=%d rank=%d: entry %d has %d values, want %d", n, p.Rank(), r, len(all[r]), r+1)
					continue
				}
				for i, v := range all[r] {
					if v != int32(r*100+i) {
						t.Errorf("n=%d rank=%d: entry %d[%d] = %d", n, p.Rank(), r, i, v)
					}
				}
			}
		})
	})
}

// TestAllGatherWire pins the typed all-gathers' wire under the iPSC/860
// model: each rank's messages and bytes sent and its final clock, for
// uneven lists (empty ones included, on the root too). The figures are
// those of the byte-level all-gather the typed ones replaced, so dropping
// the (rank, length) record header or changing the tree fails here. Every
// rank must also receive every list, empty ones as empty.
func TestAllGatherWire(t *testing.T) {
	lens := []int{0, 3, 5, 1, 0, 7, 2, 0}
	type wire struct {
		msgs, bytes int64
		clock       float64
	}
	// Keyed by element width, then rank count.
	want := map[int]map[int][]wire{
		4: {
			1: {{0, 0, 0}},
			2: {{1, 28, 0.00015719999999999997}, {1, 20, 0.00016727999999999998}},
			3: {{2, 112, 0.00023507999999999998}, {1, 20, 0.00025524}, {1, 28, 0.00018023999999999997}},
			5: {{3, 228, 0.0003937199999999999}, {1, 20, 0.0004210799999999999}, {2, 116, 0.0004210799999999999}, {1, 12, 0.00044843999999999993}, {1, 8, 0.00027107999999999993}},
			8: {{3, 408, 0.0004859999999999999}, {1, 20, 0.0005349599999999999}, {2, 176, 0.0005349599999999999}, {1, 12, 0.0005839199999999999}, {3, 340, 0.0005349599999999999}, {1, 36, 0.0005839199999999999}, {2, 160, 0.0005839199999999999}, {1, 8, 0.0006328799999999999}},
		},
		8: {
			1: {{0, 0, 0}},
			2: {{1, 40, 0.00016151999999999998}, {1, 32, 0.00017591999999999998}},
			3: {{2, 176, 0.00024228}, {1, 32, 0.00027395999999999996}, {1, 48, 0.00019895999999999998}},
			5: {{3, 336, 0.00040379999999999995}, {1, 32, 0.00044412}, {2, 176, 0.00044412}, {1, 16, 0.00048444000000000004}, {1, 8, 0.00029412}},
			8: {{3, 624, 0.0005018399999999999}, {1, 32, 0.00057672}, {2, 272, 0.00057672}, {1, 16, 0.0006516}, {3, 520, 0.00057672}, {1, 64, 0.0006516}, {2, 240, 0.0006516}, {1, 8, 0.00072648}},
		},
	}
	gathers := []struct {
		name   string
		width  int
		gather func(p *Proc) bool // reports whether the lists arrived intact
	}{
		{"I32", 4, func(p *Proc) bool {
			return gatheredIntact(p.AllGatherI32(wireList[int32](p.Rank(), lens)), lens[:p.Size()])
		}},
		{"I64", 8, func(p *Proc) bool {
			return gatheredIntact(p.AllGatherI64(wireList[int64](p.Rank(), lens)), lens[:p.Size()])
		}},
		{"F64", 8, func(p *Proc) bool {
			return gatheredIntact(p.AllGatherF64(wireList[float64](p.Rank(), lens)), lens[:p.Size()])
		}},
	}
	for _, g := range gathers {
		for n, rows := range want[g.width] {
			rep := Run(n, costmodel.IPSC860(), func(p *Proc) {
				if !g.gather(p) {
					t.Errorf("AllGather%s n=%d: rank %d received wrong lists", g.name, n, p.Rank())
				}
			})
			for r, w := range rows {
				got := wire{rep.Stats[r].MsgsSent, rep.Stats[r].BytesSent, rep.Clocks[r]}
				if got != w {
					t.Errorf("AllGather%s n=%d rank %d: (msgs, bytes, clock) = %v, want %v", g.name, n, r, got, w)
				}
			}
		}
	}
}

// wireList returns rank's list for TestAllGatherWire: lens[rank] values.
func wireList[T int32 | int64 | float64](rank int, lens []int) []T {
	xs := make([]T, lens[rank])
	for i := range xs {
		xs[i] = T(rank*100 + i)
	}
	return xs
}

// gatheredIntact reports whether got holds exactly every rank's wireList.
func gatheredIntact[T int32 | int64 | float64](got [][]T, lens []int) bool {
	for r, xs := range got {
		if !slices.Equal(xs, wireList[T](r, lens)) {
			return false
		}
	}
	return len(got) == len(lens)
}

func TestAllReduce(t *testing.T) {
	testCollectiveSizes(t, func(t *testing.T, n int) {
		Run(n, costmodel.Uniform(1e-6), func(p *Proc) {
			r := float64(p.Rank())
			sum := p.AllReduceF64(OpSum, []float64{1, r})
			if sum[0] != float64(n) {
				t.Errorf("n=%d sum[0] = %v, want %d", n, sum[0], n)
			}
			want := float64(n*(n-1)) / 2
			if sum[1] != want {
				t.Errorf("n=%d sum[1] = %v, want %v", n, sum[1], want)
			}
			max := p.AllReduceScalarF64(OpMax, r)
			if max != float64(n-1) {
				t.Errorf("n=%d max = %v, want %d", n, max, n-1)
			}
			min := p.AllReduceScalarI64(OpMin, int64(p.Rank())-5)
			if min != -5 {
				t.Errorf("n=%d min = %v, want -5", n, min)
			}
		})
	})
}

func TestAllToAll(t *testing.T) {
	testCollectiveSizes(t, func(t *testing.T, n int) {
		Run(n, costmodel.Uniform(1e-6), func(p *Proc) {
			send := make([][]int32, n)
			for to := 0; to < n; to++ {
				send[to] = []int32{int32(p.Rank()*1000 + to)}
			}
			got := p.AllToAllI32(send, nil)
			for from := 0; from < n; from++ {
				v := got[from][0]
				want := int32(from*1000 + p.Rank())
				if v != want {
					t.Errorf("n=%d rank=%d from=%d got %d want %d", n, p.Rank(), from, v, want)
				}
			}
		})
	})
}

func TestVirtualTimeMessageCost(t *testing.T) {
	m := &costmodel.Machine{Alpha: 1, Beta: 0.5, Flop: 1, Mem: 1, Name: "test"}
	rep := Run(2, m, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, make([]byte, 10)) // departs at 0, arrives at 0 + 1 + 5 = 6
		} else {
			p.Recv(0, 1)
			if p.Clock() != 6 {
				t.Errorf("receiver clock = %v, want 6", p.Clock())
			}
		}
	})
	if rep.Clocks[0] != 1 { // sender busy for Alpha
		t.Errorf("sender clock = %v, want 1", rep.Clocks[0])
	}
}

func TestStatsAccounting(t *testing.T) {
	m := costmodel.Uniform(1e-3)
	rep := Run(2, m, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(0.5)
			p.Send(1, 1, make([]byte, 100))
		} else {
			p.Recv(0, 1)
		}
	})
	s0, s1 := rep.Stats[0], rep.Stats[1]
	if s0.ComputeTime != 0.5 {
		t.Errorf("rank 0 compute = %v", s0.ComputeTime)
	}
	if s0.MsgsSent != 1 || s0.BytesSent != 100 {
		t.Errorf("rank 0 sent stats = %+v", s0)
	}
	if s1.MsgsRecv != 1 || s1.BytesRecv != 100 {
		t.Errorf("rank 1 recv stats = %+v", s1)
	}
	if s1.commTime <= 0 {
		t.Errorf("rank 1 comm time = %v, want > 0 (waited for sender)", s1.commTime)
	}
}

func TestReportMetrics(t *testing.T) {
	rep := &Report{
		N:      2,
		Clocks: []float64{3, 5},
		Stats: []Stats{
			{ComputeTime: 2, commTime: 1, MsgsSent: 3, BytesSent: 30},
			{ComputeTime: 4, commTime: 1, MsgsSent: 1, BytesSent: 10},
		},
	}
	if got := rep.MaxClock(); got != 5 {
		t.Errorf("MaxClock = %v", got)
	}
	if got := rep.MeanComputeTime(); got != 3 {
		t.Errorf("MeanComputeTime = %v", got)
	}
	if got := rep.LoadBalance(); math.Abs(got-4.0*2/6) > 1e-12 {
		t.Errorf("LoadBalance = %v, want %v", got, 4.0*2/6)
	}
	if got := rep.TotalBytesSent(); got != 40 {
		t.Errorf("TotalBytesSent = %v", got)
	}
	if got := rep.TotalMsgsSent(); got != 4 {
		t.Errorf("TotalMsgsSent = %v", got)
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in rank body did not propagate")
		}
	}()
	Run(2, costmodel.Uniform(1e-6), func(p *Proc) {
		p.Barrier()
		if p.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	Run(1, costmodel.Uniform(1e-6), func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-send did not panic")
			}
		}()
		p.Send(0, 1, nil)
	})
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{ComputeTime: 5, commTime: 3, MsgsSent: 10, BytesSent: 100, MsgsRecv: 7, BytesRecv: 70}
	b := Stats{ComputeTime: 2, commTime: 1, MsgsSent: 4, BytesSent: 40, MsgsRecv: 3, BytesRecv: 30}
	d := a.Sub(b)
	if d.ComputeTime != 3 || d.commTime != 2 || d.MsgsSent != 6 || d.BytesSent != 60 || d.MsgsRecv != 4 || d.BytesRecv != 40 {
		t.Errorf("Sub = %+v", d)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.ComputeTime != 7 || acc.MsgsSent != 14 {
		t.Errorf("Add = %+v", acc)
	}
}

func TestProcAccessorsAndCosts(t *testing.T) {
	m := costmodel.IPSC860()
	Run(3, m, func(p *Proc) {
		if p.Size() != 3 {
			t.Errorf("Size = %d", p.Size())
		}
		if p.Machine() != m {
			t.Error("Machine accessor wrong")
		}
		p.ComputeFlops(10)
		p.ComputeMem(5)
		want := m.FlopCost(10) + m.MemCost(5)
		if math.Abs(p.Clock()-want) > 1e-18 {
			t.Errorf("clock %v, want %v", p.Clock(), want)
		}
		if st := p.Stats(); math.Abs(st.ComputeTime-want) > 1e-18 {
			t.Errorf("stats %v", st)
		}
	})
}

func TestNegativeComputePanics(t *testing.T) {
	Run(1, costmodel.Uniform(1e-9), func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative compute did not panic")
			}
		}()
		p.Compute(-1)
	})
}

func TestMeanCommTime(t *testing.T) {
	rep := &Report{N: 2, Stats: []Stats{{commTime: 2}, {commTime: 4}}}
	if got := rep.MeanCommTime(); got != 3 {
		t.Errorf("MeanCommTime = %v", got)
	}
}

func TestAllReduceMaxMinVariants(t *testing.T) {
	Run(4, costmodel.Uniform(1e-9), func(p *Proc) {
		r := float64(p.Rank())
		if got := p.AllReduceF64(OpMax, []float64{r, -r}); got[0] != 3 || got[1] != 0 {
			t.Errorf("f64 max = %v", got)
		}
		if got := p.AllReduceF64(OpMin, []float64{r, -r}); got[0] != 0 || got[1] != -3 {
			t.Errorf("f64 min = %v", got)
		}
		ri := int64(p.Rank())
		if got := p.AllReduceScalarI64(OpMax, ri); got != 3 {
			t.Errorf("i64 max = %v", got)
		}
		if got := p.AllReduceScalarI64(OpSum, ri); got != 6 {
			t.Errorf("i64 sum = %v", got)
		}
	})
}

func TestReduceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched reduce vectors did not panic")
		}
	}()
	Run(2, costmodel.Uniform(1e-9), func(p *Proc) {
		// Rank 0 contributes 2 elements, rank 1 contributes 1.
		p.AllReduceF64(OpSum, make([]float64, 2-p.Rank()))
	})
}

func TestNewProcValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad rank did not panic")
		}
	}()
	newProc(5, 2, NewMemTransport(2), costmodel.Uniform(1))
}

// TestBadPeerRankRefused: a peer rank outside [0, Size) is refused by the
// Proc before any transport sees it. Unchecked, the in-memory transport's
// receive read another rank's mailbox (rank 0 got back its own message to
// rank 1) and TCP died on a raw index error.
func TestBadPeerRankRefused(t *testing.T) {
	transports := []struct {
		name string
		mk   func() (Transport, error)
	}{
		{"mem", func() (Transport, error) { return NewMemTransport(2), nil }},
		{"tcp", func() (Transport, error) { return NewTCPMesh(2) }},
	}
	ops := []struct {
		name string
		op   func(p *Proc)
		want string
	}{
		{"recv", func(p *Proc) { recvWords[float64](p, 2, 5, nil) }, "comm: recv from bad rank 2 (n=2)"},
		{"recv-negative", func(p *Proc) { p.Recv(-1, 5) }, "comm: recv from bad rank -1 (n=2)"},
		{"send", func(p *Proc) { sendWords[float64](p, 2, 5, []float64{1}) }, "comm: send to bad rank 2 (n=2)"},
		{"sendstart-negative", func(p *Proc) { p.SendStart(-1, 5, nil) }, "comm: send to bad rank -1 (n=2)"},
	}
	for _, tr := range transports {
		for _, o := range ops {
			t.Run(tr.name+"/"+o.name, func(t *testing.T) {
				link, err := tr.mk()
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					e := recover()
					if s, _ := e.(string); !strings.Contains(s, o.want) {
						t.Fatalf("panic %v, want one containing %q", e, o.want)
					}
				}()
				RunTransport(2, costmodel.Uniform(1e-9), link, func(p *Proc) {
					if p.Rank() == 0 {
						sendWords[float64](p, 1, 5, []float64{42})
						o.op(p)
					}
				})
			})
		}
	}
}

func TestPoisonUnblocksPeersOnFailure(t *testing.T) {
	// A rank that panics while peers are blocked in Recv must not deadlock
	// the run: the transport is poisoned and the original panic re-raised.
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("wrong panic surfaced: %v", e)
		}
	}()
	Run(3, costmodel.Uniform(1e-6), func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		// Ranks 0 and 1 wait forever for rank 2.
		p.Recv(2, 9)
	})
}

func TestPoisonTCP(t *testing.T) {
	tr, err := NewTCPMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate over TCP mesh")
		}
	}()
	RunTransport(2, costmodel.Uniform(1e-6), tr, func(p *Proc) {
		if p.Rank() == 1 {
			panic("tcp boom")
		}
		p.Recv(1, 3)
	})
}

func TestCollectivesAt128Ranks(t *testing.T) {
	// Full-machine scale: the collectives must stay correct with 128
	// goroutine ranks (the paper's largest configuration).
	if testing.Short() {
		t.Skip("short mode")
	}
	Run(128, costmodel.IPSC860(), func(p *Proc) {
		sum := p.AllReduceScalarI64(OpSum, int64(p.Rank()))
		if sum != 128*127/2 {
			t.Errorf("rank %d: sum = %d", p.Rank(), sum)
		}
		all := p.AllGatherI32([]int32{int32(p.Rank())})
		for r := range all {
			if all[r][0] != int32(r) {
				t.Errorf("allgather entry %d wrong", r)
			}
		}
		send := make([][]float64, 128)
		for to := range send {
			send[to] = []float64{float64(p.Rank() ^ to)}
		}
		got := p.AllToAllF64(send, nil)
		for from := range got {
			if got[from][0] != float64(from^p.Rank()) {
				t.Errorf("alltoall from %d wrong", from)
			}
		}
		p.Barrier()
	})
}

// TestAllGatherI32IntoWire: the flat all-gather sends what AllGatherI32
// sends — the same messages and bytes from every rank, and the same clocks
// — over mem and TCP at 1 to 5 ranks, empty lists included, and returns the
// lists' concatenation in rank order, in dst's storage when it fits.
func TestAllGatherI32IntoWire(t *testing.T) {
	lens := []int{0, 3, 5, 0, 7}
	run := func(n int, tcp bool, body func(p *Proc)) *Report {
		if tcp {
			return runTCP(t, n, body)
		}
		return Run(n, costmodel.Uniform(1e-6), body)
	}
	for n := 1; n <= len(lens); n++ {
		for _, tcp := range []bool{false, true} {
			var want []int32
			for r := 0; r < n; r++ {
				want = append(want, wireList[int32](r, lens)...)
			}
			lists := run(n, tcp, func(p *Proc) {
				if got := p.AllGatherI32(wireList[int32](p.Rank(), lens)); !gatheredIntact(got, lens[:n]) {
					t.Errorf("%d ranks, tcp %v: AllGatherI32 gave rank %d %v", n, tcp, p.Rank(), got)
				}
			})
			flat := run(n, tcp, func(p *Proc) {
				dst := make([]int32, 0, 64)
				got := p.AllGatherI32Into(dst, wireList[int32](p.Rank(), lens))
				if !slices.Equal(got, want) || got == nil {
					t.Errorf("%d ranks, tcp %v: AllGatherI32Into gave rank %d %v, want %v", n, tcp, p.Rank(), got, want)
				}
				if len(got) > 0 && &got[0] != &dst[:1][0] {
					t.Errorf("%d ranks, tcp %v: rank %d's result left dst's storage", n, tcp, p.Rank())
				}
			})
			for r := 0; r < n; r++ {
				if lists.Stats[r].MsgsSent != flat.Stats[r].MsgsSent || lists.Stats[r].BytesSent != flat.Stats[r].BytesSent || lists.Clocks[r] != flat.Clocks[r] {
					t.Errorf("%d ranks, tcp %v: rank %d sent %d messages, %d bytes by %v flat, %d, %d by %v as lists",
						n, tcp, r, flat.Stats[r].MsgsSent, flat.Stats[r].BytesSent, flat.Clocks[r],
						lists.Stats[r].MsgsSent, lists.Stats[r].BytesSent, lists.Clocks[r])
				}
			}
		}
	}
}
