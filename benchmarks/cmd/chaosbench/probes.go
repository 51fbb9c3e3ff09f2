package main

import (
	"fmt"
	"math/rand"

	"repro/internal/adapt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hashtab"
	"repro/internal/loopir"
	"repro/internal/partition"
	"repro/internal/remap"
	"repro/internal/schedule"
	"repro/internal/ttable"
)

// The probe pass prices each layer of the stack in isolation, on fixed
// inputs that do not depend on the workload or the seed: it times calls
// into the layer's public functions from inside a 2-rank SPMD body, a batch
// at a time, and reports the median batch in calibrated nanoseconds per
// unit of work. The numbers are diagnostic: they say which layer a change
// moved, and the README lists which end-to-end metric each should carry
// with it.
const probeSeed = 1994

// probeSize fixes the probes' inputs; the smoke test shrinks them.
type probeSize struct {
	batches int // timed batches per probe
	elems   int // global elements of the probe distribution
	refs    int // indirection references per rank
	iters   int // divisor on the per-batch iteration counts
}

var (
	fullProbes  = probeSize{batches: 15, elems: 20_000, refs: 60_000, iters: 1}
	shortProbes = probeSize{batches: 2, elems: 400, refs: 1200, iters: 50}
)

// n scales a per-batch iteration count.
func (sz probeSize) n(full int) int { return max(1, full/sz.iters) }

// probe is one layer measurement. setup runs once per rank and returns the
// batch operation; batch returns how many units of work it did on this rank
// (messages, elements, references). Both ranks run every batch; rank 0's
// clock is the one read.
type probe struct {
	name  string
	tcp   bool // run over the TCP loopback mesh instead of in-memory
	setup func(p *comm.Proc) (batch func() int)
}

// runBatches executes pr on two ranks and returns rank 0's raw seconds per
// unit for each batch, after one untimed warm-up batch.
func runBatches(pr probe, batches int) ([]float64, error) {
	var tr comm.Transport = comm.NewMemTransport(2)
	if pr.tcp {
		var err error
		if tr, err = comm.NewTCPMesh(2); err != nil {
			return nil, err
		}
	}
	per := make([]float64, 0, batches)
	comm.RunMeasuredTransport(2, costmodel.IPSC860(), tr, comm.MeasureOpts{}, func(p *comm.Proc) {
		batch := pr.setup(p)
		batch()
		for b := 0; b < batches; b++ {
			p.Barrier()
			t0 := p.WallNow()
			units := batch()
			dt := p.WallNow() - t0
			if p.Rank() == 0 {
				per = append(per, dt/float64(units))
			}
		}
	})
	return per, nil
}

// pingPong is the hand-off probe body: rank 0 sends `bytes` to rank 1 and
// waits for the echo, `trips` times. One unit is one one-way hand-off.
func pingPong(bytes, trips int) func(p *comm.Proc) func() int {
	return func(p *comm.Proc) func() int {
		buf := make([]byte, bytes)
		const tag = 7
		return func() int {
			for i := 0; i < trips; i++ {
				if p.Rank() == 0 {
					p.Send(1, tag, buf)
					p.Recv(1, tag)
				} else {
					p.Recv(0, tag)
					p.Send(0, tag, buf)
				}
			}
			return 2 * trips
		}
	}
}

func probeRNG(p *comm.Proc) *rand.Rand {
	return rand.New(rand.NewSource(probeSeed + int64(p.Rank())))
}

// randomI32 returns n draws from [0, bound).
func randomI32(p *comm.Proc, n, bound int) []int32 {
	rng := probeRNG(p)
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(rng.Intn(bound))
	}
	return xs
}

// probeState is the shared fixture of the inspector and data-motion probes:
// a block distribution, a random indirection array hashed into a fresh
// table, and the schedule built from it.
type probeState struct {
	p     *comm.Proc
	dist  *core.Dist
	refs  []int32
	ht    *hashtab.Table
	stamp hashtab.Stamp
	sched *schedule.Schedule
	data  []float64 // width 3, owned + ghost sections
	loc   []int32   // localized refs, reused across rehashes
}

func (sz probeSize) state(p *comm.Proc, kind ttable.Kind) *probeState {
	rt := core.NewRuntime(p)
	rt.TableKind = kind
	st := &probeState{p: p, dist: rt.BlockDist(sz.elems), refs: randomI32(p, sz.refs, sz.elems)}
	st.ht = st.dist.NewHashTable()
	st.stamp = st.ht.NewStamp()
	st.ht.Hash(st.refs, st.stamp)
	st.sched = schedule.Build(p, st.ht, st.stamp, 0)
	st.data = make([]float64, 3*(st.ht.NLocal()+st.ht.NGhosts()))
	return st
}

// onState makes a probe whose batch is `iters` calls of op over the shared
// fixture, each worth units(st) units.
func (sz probeSize) onState(name string, iters int, units func(st *probeState) int, op func(st *probeState)) probe {
	iters = sz.n(iters)
	return probe{name: name, setup: func(p *comm.Proc) func() int {
		st := sz.state(p, ttable.Replicated)
		return func() int {
			for i := 0; i < iters; i++ {
				op(st)
			}
			return iters * units(st)
		}
	}}
}

// geom is the partitioner probes' input: this rank's share of uniformly
// random 3-D points.
func (sz probeSize) geom(p *comm.Proc) *partition.Geom {
	lo, hi := partition.BlockRange(p.Rank(), sz.elems, p.Size())
	n := hi - lo
	rng := probeRNG(p)
	g := &partition.Geom{Dim: 3, X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
	for i := 0; i < n; i++ {
		g.X[i], g.Y[i], g.Z[i] = rng.Float64(), rng.Float64(), rng.Float64()
	}
	return g
}

func (sz probeSize) partitioner(name string, part func(p *comm.Proc, g *partition.Geom) []int32) probe {
	return probe{name: name, setup: func(p *comm.Proc) func() int {
		g := sz.geom(p)
		return func() int { part(p, g); return g.Len() }
	}}
}

// remapFixture builds a block distribution and the translation table of a
// random redistribution of it.
func (sz probeSize) remapFixture(p *comm.Proc) (dist *core.Dist, dst *ttable.Table) {
	dist = core.NewRuntime(p).BlockDist(sz.elems)
	owners := randomI32(p, dist.NLocal(), p.Size())
	slab := remap.BlockMap(p, dist.Globals(), owners, sz.elems)
	return dist, ttable.Build(p, ttable.Replicated, slab)
}

// loopFixture is a loopir SumLoop over a random CSR indirection array,
// width 3 — the kernel-remap loop's shape. pairs is this rank's count of
// references, which is also its count of loop-body executions.
func (sz probeSize) loopFixture(p *comm.Proc) (loop *loopir.SumLoop, ind *loopir.IndArray, pairs int) {
	prog := loopir.NewProgram(p)
	dec := prog.Decomposition(sz.elems)
	x, f := dec.AlignReal(3), dec.AlignReal(3)
	x.SetByGlobal(func(g int32, c []float64) { c[0], c[1], c[2] = float64(g), float64(g)*0.5, 1 })
	ind = dec.AlignIndCSR()
	n := dec.NLocal()
	row := sz.refs / n
	vals := randomI32(p, n*row, sz.elems)
	ptr := make([]int32, n+1)
	for i := range ptr {
		ptr[i] = int32(i * row)
	}
	ind.SetCSR(ptr, vals)
	loop = prog.NewSumLoop(ind, x, f, 12, func(xi, xj, fi, fj []float64) {
		for c := range xi {
			fj[c] += xj[c] - xi[c]
			fi[c] += xi[c] - xj[c]
		}
	})
	loop.Inspect()
	return loop, ind, len(vals)
}

// list returns every per-unit probe at this size.
func (sz probeSize) list() []probe {
	fetched := func(st *probeState) int { return st.sched.TotalFetch() }
	refs := func(st *probeState) int { return len(st.refs) }
	return []probe{
		{name: "comm.mem_handoff_ns", setup: pingPong(8, sz.n(2000))},
		{name: "comm.tcp_handoff_ns", tcp: true, setup: pingPong(8, sz.n(300))},
		{name: "comm.mem_kb_ns", setup: func(p *comm.Proc) func() int {
			batch := pingPong(64<<10, sz.n(200))(p)
			return func() int { return 64 * batch() } // per KiB
		}},
		{name: "comm.allreduce_ns", setup: func(p *comm.Proc) func() int {
			n := sz.n(1000)
			return func() int {
				for i := 0; i < n; i++ {
					p.AllReduceScalarF64(comm.OpSum, 1)
				}
				return n
			}
		}},
		{name: "comm.sendstart_ns", setup: func(p *comm.Proc) func() int {
			buf := make([]byte, 8)
			n := sz.n(1000)
			return func() int {
				for i := 0; i < n; i++ {
					if p.Rank() == 0 {
						p.SendStart(1, 9, buf).Wait()
					} else {
						p.Recv(0, 9) // chaosvet:ignore tag-match — the matching send is the SendStart above
					}
				}
				return n
			}
		}},
		sz.onState("schedule.gather_ns_per_elem", 20, fetched, func(st *probeState) {
			schedule.GatherW(st.p, st.sched, st.data, 3)
		}),
		sz.onState("schedule.scatter_ns_per_elem", 20, fetched, func(st *probeState) {
			schedule.ScatterW(st.p, st.sched, st.data, 3, schedule.OpAdd)
		}),
		sz.onState("schedule.splitphase_ns_per_elem", 20, fetched, func(st *probeState) {
			schedule.GatherWStart(st.p, st.sched, st.data, 3).Wait()
		}),
		sz.onState("schedule.build_ns_per_ref", 10, func(st *probeState) int { return st.ht.Len() }, func(st *probeState) {
			st.sched = schedule.BuildInto(st.sched, st.p, st.ht, st.stamp, 0)
		}),
		{name: "schedule.light_build_ns_per_item", setup: func(p *comm.Proc) func() int {
			dest := randomI32(p, sz.refs, p.Size())
			n := sz.n(10)
			return func() int {
				for i := 0; i < n; i++ {
					schedule.BuildLight(p, dest) // chaosvet:ignore sched-reuse — the rebuild is what is timed
				}
				return n * len(dest)
			}
		}},
		{name: "schedule.light_move_ns_per_item", setup: func(p *comm.Proc) func() int {
			dest := randomI32(p, sz.refs, p.Size())
			items := make([]float64, 7*len(dest)) // a DSMC molecule record is 7 wide
			ls := schedule.BuildLight(p, dest)
			var out []float64
			n := sz.n(5)
			return func() int {
				for i := 0; i < n; i++ {
					out = ls.MoveF64Into(p, dest, items, 7, out)
				}
				return n * len(dest)
			}
		}},
		sz.onState("hashtab.hash_ns_per_ref", 5, refs, func(st *probeState) {
			st.ht.Reset(st.dist.TT())
			st.loc = st.ht.HashInto(st.loc, st.refs, st.ht.NewStamp())
		}),
		sz.onState("hashtab.rehash_ns_per_ref", 5, refs, func(st *probeState) {
			st.ht.ClearStamp(st.stamp)
			st.loc = st.ht.HashInto(st.loc, st.refs, st.stamp)
		}),
		{name: "ttable.build_ns_per_elem", setup: func(p *comm.Proc) func() int {
			lo, hi := partition.BlockRange(p.Rank(), sz.elems, p.Size())
			owners := randomI32(p, hi-lo, p.Size())
			n := sz.n(10)
			return func() int {
				for i := 0; i < n; i++ {
					ttable.Build(p, ttable.Distributed, owners)
				}
				return n * len(owners)
			}
		}},
		{name: "ttable.deref_ns_per_ref", setup: func(p *comm.Proc) func() int {
			st := sz.state(p, ttable.Distributed)
			var ents []ttable.Entry
			n := sz.n(5)
			return func() int {
				for i := 0; i < n; i++ {
					ents = st.dist.TT().DereferenceInto(p, st.refs, ents)
				}
				return n * len(st.refs)
			}
		}},
		sz.partitioner("partition.rcb_ns_per_elem", partition.RCB),
		sz.partitioner("partition.rib_ns_per_elem", partition.RIB),
		sz.partitioner("partition.chain_ns_per_elem", func(p *comm.Proc, g *partition.Geom) []int32 {
			return partition.Chain(p, 0, g)
		}),
		{name: "remap.plan_ns_per_elem", setup: func(p *comm.Proc) func() int {
			dist, dst := sz.remapFixture(p)
			n := sz.n(10)
			return func() int {
				for i := 0; i < n; i++ {
					remap.NewPlan(p, dist.Globals(), dst)
				}
				return n * dist.NLocal()
			}
		}},
		{name: "remap.move_ns_per_elem", setup: func(p *comm.Proc) func() int {
			dist, dst := sz.remapFixture(p)
			plan := remap.NewPlan(p, dist.Globals(), dst)
			old := make([]float64, 3*dist.NLocal())
			n := sz.n(10)
			return func() int {
				for i := 0; i < n; i++ {
					plan.MoveF64(p, old, 3)
				}
				return n * dist.NLocal()
			}
		}},
		{name: "loopir.inspect_ns_per_ref", setup: func(p *comm.Proc) func() int {
			loop, ind, refs := sz.loopFixture(p)
			n := sz.n(5)
			return func() int {
				for i := 0; i < n; i++ {
					ind.Touch() // the generated guard sees a modified indirection array
					loop.Inspect()
				}
				return n * refs
			}
		}},
		{name: "loopir.exec_ns_per_pair", setup: func(p *comm.Proc) func() int {
			loop, _, pairs := sz.loopFixture(p)
			n := sz.n(10)
			return func() int {
				for i := 0; i < n; i++ {
					loop.Execute()
				}
				return n * pairs
			}
		}},
	}
}

// modeRatio times one optional executor mode against the blocking executor
// on the same loop and ranks: both loops run in alternation inside one SPMD
// body, and the result is the median of per-batch wall ratios (mode ÷
// blocking), so host drift cancels without calibration. Above 1 means the
// mode costs more than it hides on this host.
func (sz probeSize) modeRatio(ranks int, enable func(l *loopir.SumLoop)) float64 {
	ratios := make([]float64, 0, sz.batches)
	iters := sz.n(5)
	comm.RunMeasured(ranks, costmodel.IPSC860(), func(p *comm.Proc) {
		plain, _, _ := sz.loopFixture(p)
		mode, _, _ := sz.loopFixture(p)
		enable(mode)
		timeIt := func(l *loopir.SumLoop) float64 {
			p.Barrier()
			t0 := p.WallNow()
			for i := 0; i < iters; i++ {
				l.Execute()
			}
			return p.WallNow() - t0
		}
		timeIt(plain)
		timeIt(mode)
		for b := 0; b < sz.batches; b++ {
			a, m := timeIt(plain), timeIt(mode)
			if p.Rank() == 0 {
				ratios = append(ratios, m/a)
			}
		}
	})
	return median(ratios)
}

// runProbes runs the whole probe pass. Each probe's batches are bracketed
// by 2-thread calibration samples.
func runProbes(sz probeSize) map[string]metric {
	cal := newCalibrator(2)
	m := map[string]metric{}
	for _, pr := range sz.list() {
		c0 := cal.run(2)
		per, err := runBatches(pr, sz.batches)
		c1 := cal.run(2)
		if err != nil {
			// Only the TCP probe can fail to set up (no loopback in a
			// sandbox). Its metric moves no end-to-end number, so report it
			// as absent (0) rather than failing the pass.
			fmt.Printf("probe %s unavailable: %v\n", pr.name, err)
			per = []float64{0}
		}
		m[pr.name] = metric{calibrated(median(per), c0, c1, 2) * 1e9, "ns"}
	}
	overlap := func(l *loopir.SumLoop) { l.Overlap(true) }
	m["loopir.overlap_ratio_p1"] = metric{sz.modeRatio(1, overlap), "ratio"}
	m["loopir.overlap_ratio_p2"] = metric{sz.modeRatio(2, overlap), "ratio"}
	m["loopir.selfsched_ratio_p1"] = metric{sz.modeRatio(1, func(l *loopir.SumLoop) { l.SelfSched(adapt.NewController()) }), "ratio"}
	// One inspection costs this many executions of the same loop: the
	// inspector pays for itself only on loops that run at least that often
	// between adaptations. Same fixture, so references = pairs.
	m["loopir.breakeven_iters"] = metric{m["loopir.inspect_ns_per_ref"].Value / m["loopir.exec_ns_per_pair"].Value, "count"}
	return m
}
