package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The calibration kernel is the benchmark's yardstick for host speed. It
// shares no code with the repository, so no change to the program can move
// it, but it is built to slow down the way the program does when the host
// does. On a shared VM each vCPU alternates, on every scale from a tenth of
// a second to minutes, between full speed and the speed its core gives it
// while another tenant runs on the sibling hardware thread. How much that
// costs depends on the code: a tight, wide floating-point loop lost 1.76x
// in the slow state while sizing this benchmark, a dependent chain of
// divides 1.04x, and the four workloads 1.42-1.49x. So the kernel is made
// of the two things the workloads spend their time on, written the way the
// program writes them: a pair-force sweep through a non-inlined function on
// 3-wide sub-slices (as the executors do; 1.40x) and open-addressing hash
// probes of random keys (as the inspectors do; 1.48x).
const (
	calPoints = 24_000  // 3-wide points: 1.1 MB with forces, fits L2
	calPairs  = 150_000 // pair-force evaluations per sweep
	calSlots  = 1 << 18 // hash slots, 1 MB
	calKeys   = 240_000 // probes per sweep
	calSweeps = 2       // sweeps per sample, ~7 ms each on a quiet host
)

// cRef is the kernel's time on this class of host in a quiet phase (index =
// thread count; set from the lower decile of the samples taken while sizing
// the benchmark). It only fixes the unit: a calibrated second equals a raw
// second while the host runs the kernel in exactly cRef. Changing it
// rescales every timing metric by the same factor and so breaks comparison
// with earlier runs, which is why it is pinned rather than measured.
var cRef = [3]float64{0, 0.0132, 0.0140}

type calData struct {
	x, f   []float64
	ia, ib []int32
	slots  []int32
	keys   []int32
	hits   int
}

func newCalData(seed int64) *calData {
	rng := rand.New(rand.NewSource(seed))
	d := &calData{
		x:     make([]float64, 3*calPoints),
		f:     make([]float64, 3*calPoints),
		ia:    make([]int32, calPairs),
		ib:    make([]int32, calPairs),
		slots: make([]int32, calSlots),
		keys:  make([]int32, calKeys),
	}
	for i := range d.x {
		d.x[i] = rng.Float64()
	}
	for k := range d.ia {
		d.ia[k] = int32(rng.Intn(calPoints))
		d.ib[k] = int32(rng.Intn(calPoints))
	}
	for k := range d.keys {
		d.keys[k] = 1 + int32(rng.Intn(1<<30))
	}
	// Half the keys are resident, so a probe pass mixes hits and misses at
	// a fixed load factor and never changes the table.
	for _, g := range d.keys[:calKeys/2] {
		pos := calHome(g)
		for d.slots[pos] != 0 && d.slots[pos] != g {
			pos = (pos + 1) & (calSlots - 1)
		}
		d.slots[pos] = g
	}
	rng.Shuffle(len(d.keys), func(i, j int) { d.keys[i], d.keys[j] = d.keys[j], d.keys[i] })
	return d
}

func calHome(g int32) uint32 { return (uint32(g) * 2654435769) >> (32 - 18) }

// calForce is the pair-force body. It is kept out of line and handed
// sub-slices on purpose: that is how the program's executors call theirs.
//
//go:noinline
func calForce(pi, pj, fi, fj []float64, cutoff2 float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= cutoff2 || r2 == 0 {
		return
	}
	s := 5 * (1 - r2/cutoff2)
	fi[0] += s * dx
	fi[1] += s * dy
	fi[2] += s * dz
	fj[0] -= s * dx
	fj[1] -= s * dy
	fj[2] -= s * dz
}

// sweep is one pass of the kernel: the pair sweep, then the probe pass.
// Results feed back into the data so the compiler cannot drop the loops.
func (d *calData) sweep() {
	x, f := d.x, d.f
	for k, a := range d.ia {
		i, j := 3*int(a), 3*int(d.ib[k])
		calForce(x[i:i+3], x[j:j+3], f[i:i+3], f[j:j+3], 0.5)
	}
	hits := 0
	for _, g := range d.keys {
		pos := calHome(g)
		for d.slots[pos] != 0 && d.slots[pos] != g {
			pos = (pos + 1) & (calSlots - 1)
		}
		if d.slots[pos] == g {
			hits++
		}
	}
	d.hits += hits
}

// calibrator owns one kernel data set per thread and a clock. The clock is
// a field so tests can script it.
type calibrator struct {
	data []*calData
	now  func() float64
	// run executes the kernel on `threads` pinned threads and returns its
	// duration; tests replace it.
	run func(threads int) float64
}

func newCalibrator(maxThreads int) *calibrator {
	c := &calibrator{now: wallNow}
	for t := 0; t < maxThreads; t++ {
		c.data = append(c.data, newCalData(int64(7919*(t+1))))
	}
	c.run = c.runKernel
	return c
}

var wallEpoch = time.Now()

// wallNow is the harness clock: monotonic seconds since process start.
func wallNow() float64 { return time.Since(wallEpoch).Seconds() }

// runKernel takes one sample: calSweeps sweeps on each of `threads`
// goroutines released together, thread t bound to the CPU rank t of a rep
// runs on. It returns the time until the last one finished — the speed of
// the slowest of the CPUs a rep with that many ranks depends on.
func (c *calibrator) runKernel(threads int) float64 {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(threads)
	done.Add(threads)
	for t := 0; t < threads; t++ {
		go func(t int, d *calData) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			defer pinThread(t)()
			ready.Done()
			<-start
			for i := 0; i < calSweeps; i++ {
				d.sweep()
			}
			done.Done()
		}(t, c.data[t])
	}
	ready.Wait()
	t0 := c.now()
	close(start)
	done.Wait()
	return c.now() - t0
}

// calibrated converts raw seconds measured between two kernel samples into
// calibrated seconds: raw × C_ref ÷ mean(C_before, C_after).
func calibrated(raw, calBefore, calAfter float64, threads int) float64 {
	return raw * cRef[threads] / (0.5 * (calBefore + calAfter))
}
