package core

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

func TestBlockDist(t *testing.T) {
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		d := rt.BlockDist(100)
		if d.N() != 100 {
			t.Errorf("N = %d", d.N())
		}
		lo, hi := partition.BlockRange(p.Rank(), 100, 4)
		if d.NLocal() != hi-lo {
			t.Errorf("NLocal = %d, want %d", d.NLocal(), hi-lo)
		}
		for i, g := range d.Globals() {
			if int(g) != lo+i {
				t.Errorf("globals[%d] = %d, want %d", i, g, lo+i)
			}
		}
	})
}

func TestRepartitionMovesArrays(t *testing.T) {
	const n = 160
	rng := rand.New(rand.NewSource(4))
	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(rng.Intn(4))
	}
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		d := rt.BlockDist(n)
		data := make([]float64, d.NLocal())
		for i, g := range d.Globals() {
			data[i] = float64(g) * 2
		}
		mine := make([]int32, d.NLocal())
		for i, g := range d.Globals() {
			mine[i] = owners[g]
		}
		d2, plan := d.Repartition(mine)
		data = plan.MoveF64(p, data, 1)
		if len(data) != d2.NLocal() {
			t.Fatalf("moved data length %d, want %d", len(data), d2.NLocal())
		}
		for i, g := range d2.Globals() {
			if owners[g] != int32(p.Rank()) {
				t.Errorf("global %d landed on rank %d, want %d", g, p.Rank(), owners[g])
			}
			if data[i] != float64(g)*2 {
				t.Errorf("global %d carries %v", g, data[i])
			}
		}
	})
}

func TestEndToEndIrregularLoop(t *testing.T) {
	// The full Figure 1 pipeline: partition (random), remap, inspector,
	// executor for x(ia(i)) += y(ib(i)); compare against sequential.
	const n = 80
	const iters = 120
	rng := rand.New(rand.NewSource(21))
	ia := make([]int32, iters)
	ib := make([]int32, iters)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		ib[i] = int32(rng.Intn(n))
	}
	y0 := make([]float64, n)
	for i := range y0 {
		y0[i] = rng.Float64()
	}
	want := make([]float64, n)
	for i := 0; i < iters; i++ {
		want[ia[i]] += y0[ib[i]]
	}

	owners := make([]int32, n)
	for i := range owners {
		owners[i] = int32(rng.Intn(3))
	}
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		d := rt.BlockDist(n)
		x := make([]float64, d.NLocal())
		y := make([]float64, d.NLocal())
		for i, g := range d.Globals() {
			y[i] = y0[g]
		}
		mine := make([]int32, d.NLocal())
		for i, g := range d.Globals() {
			mine[i] = owners[g]
		}
		d2, plan := d.Repartition(mine)
		x = plan.MoveF64(p, x, 1)
		y = plan.MoveF64(p, y, 1)

		// Iterations block-partitioned; each rank handles its slab.
		itLo, itHi := partition.BlockRange(p.Rank(), iters, p.Size())
		ht := d2.NewHashTable()
		sa := ht.NewStamp()
		sb := ht.NewStamp()
		la := ht.Hash(ia[itLo:itHi], sa)
		lb := ht.Hash(ib[itLo:itHi], sb)
		sched := schedule.Build(p, ht, sa|sb, 0)

		buf := make([]float64, sched.MinLen())
		copy(buf, y)
		schedule.Gather(p, sched, buf)
		xbuf := make([]float64, sched.MinLen())
		copy(xbuf, x)
		for k := range la {
			xbuf[la[k]] += buf[lb[k]]
		}
		schedule.Scatter(p, sched, xbuf[:], schedule.OpAdd)
		// Local contributions already in xbuf for owned slots; off-proc
		// contributions were scattered. Owned part of xbuf is the result
		// EXCEPT contributions that other procs sent arrived via Scatter
		// into xbuf too. Verify against sequential result.
		for i, g := range d2.Globals() {
			if diff := xbuf[i] - want[g]; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("rank %d global %d: got %v want %v", p.Rank(), g, xbuf[i], want[g])
			}
		}
	})
}

func TestRepartitionLengthMismatchPanics(t *testing.T) {
	comm.Run(1, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		d := rt.BlockDist(10)
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		d.Repartition(make([]int32, 3))
	})
}

func TestDistributedTableKind(t *testing.T) {
	// The whole pipeline must also work with non-replicated tables.
	const n = 64
	comm.Run(4, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		rt.TableKind = ttable.Distributed
		d := rt.BlockDist(n)
		mine := make([]int32, d.NLocal())
		for i, g := range d.Globals() {
			mine[i] = int32((g * 13) % 4)
		}
		d2, plan := d.Repartition(mine)
		data := make([]float64, d.NLocal())
		for i, g := range d.Globals() {
			data[i] = float64(g)
		}
		data = plan.MoveF64(p, data, 1)
		for i, g := range d2.Globals() {
			if data[i] != float64(g) {
				t.Errorf("global %d carries %v", g, data[i])
			}
			if int32((g*13)%4) != int32(p.Rank()) {
				t.Errorf("global %d on wrong rank", g)
			}
		}
	})
}

func TestCyclicDist(t *testing.T) {
	comm.Run(3, costmodel.Uniform(1e-9), func(p *comm.Proc) {
		rt := NewRuntime(p)
		d := rt.CyclicDist(10)
		// Rank r owns globals r, r+3, r+6, ...
		for i, g := range d.Globals() {
			if int(g)%3 != p.Rank() {
				t.Errorf("rank %d owns global %d", p.Rank(), g)
			}
			if int(g) != p.Rank()+3*i {
				t.Errorf("rank %d globals out of order: %v", p.Rank(), d.Globals())
			}
		}
		// Translation agrees with ownership and local order.
		for g := 0; g < 10; g++ {
			if int(d.TT().OwnerOf(g)) != g%3 {
				t.Errorf("owner of %d = %d", g, d.TT().OwnerOf(g))
			}
			if int(d.TT().OffsetOf(g)) != g/3 {
				t.Errorf("offset of %d = %d", g, d.TT().OffsetOf(g))
			}
		}
		// Repartition from cyclic works like from block.
		owners := make([]int32, d.NLocal())
		for i, g := range d.Globals() {
			owners[i] = (g + 1) % 3
		}
		d2, plan := d.Repartition(owners)
		vals := make([]float64, d.NLocal())
		for i, g := range d.Globals() {
			vals[i] = float64(g)
		}
		vals = plan.MoveF64(p, vals, 1)
		for i, g := range d2.Globals() {
			if vals[i] != float64(g) {
				t.Errorf("after repartition, global %d carries %v", g, vals[i])
			}
		}
	})
}
