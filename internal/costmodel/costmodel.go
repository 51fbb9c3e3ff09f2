// Package costmodel defines the machine cost model used to account virtual
// time for the simulated distributed-memory machine.
//
// The reproduction runs all "processors" on one host (goroutines or TCP
// peers), so wall-clock time cannot reproduce the paper's scaling tables.
// Instead every processor carries a virtual clock: application work advances
// it by a per-operation cost, and every message advances the sender's and
// receiver's clocks following a LogGP-style model with a per-message startup
// cost Alpha and a per-byte cost Beta. The constants default to Intel
// iPSC/860-like magnitudes, the machine used in the paper.
package costmodel

import "fmt"

// Machine holds the cost constants of the modeled machine. All costs are in
// seconds. The zero value is invalid; use IPSC860 or NewMachine.
type Machine struct {
	// Alpha is the per-message startup (latency) cost in seconds.
	Alpha float64
	// Beta is the per-byte transfer cost in seconds (1/bandwidth).
	Beta float64
	// Flop is the cost of one floating-point operation (force evaluation
	// arithmetic, reductions, ...).
	Flop float64
	// Mem is the cost of one irregular memory operation (hash probe,
	// indirection-array dereference, table lookup).
	Mem float64
	// Name identifies the preset for reports.
	Name string
}

// IPSC860 returns an Intel iPSC/860-like machine model: ~75 microsecond
// short-message startup (csend/crecv latency), ~2.8 MB/s effective
// bandwidth, ~5 Mflop/s effective compute, and memory operations a few
// times cheaper than flops (the i860 had fast local SRAM but an expensive
// irregular access path).
func IPSC860() *Machine {
	return &Machine{
		Alpha: 75e-6,
		Beta:  0.36e-6,
		Flop:  0.20e-6,
		Mem:   0.08e-6,
		Name:  "iPSC/860",
	}
}

// Uniform returns a machine where every cost is c seconds. Useful in tests
// that need exact, easily predictable clock arithmetic.
func Uniform(c float64) *Machine {
	return &Machine{Alpha: c, Beta: c, Flop: c, Mem: c, Name: "uniform"}
}

// MsgCost returns the modeled time to transfer one message of n bytes:
// Alpha + Beta*n.
//
// Every product in this file is wrapped in an explicit float64 conversion,
// which the Go spec defines to round it: without it, gc on arm64, ppc64le,
// s390x and riscv64 may fuse the product into the caller's addition (a
// clock advance, after inlining) with one rounding, and the virtual
// timeline would differ from amd64's in the last bit.
func (m *Machine) MsgCost(n int) float64 {
	return m.Alpha + float64(m.Beta*float64(n))
}

// FlopCost returns the modeled time for n floating-point operations.
func (m *Machine) FlopCost(n int) float64 { return float64(m.Flop * float64(n)) }

// MemCost returns the modeled time for n irregular memory operations.
func (m *Machine) MemCost(n int) float64 { return float64(m.Mem * float64(n)) }

// Validate reports an error if any constant is non-positive.
func (m *Machine) Validate() error {
	if m.Alpha <= 0 || m.Beta <= 0 || m.Flop <= 0 || m.Mem <= 0 {
		return fmt.Errorf("costmodel: machine %q has non-positive constants: %+v", m.Name, *m)
	}
	return nil
}
