//go:build !linux

package main

// pinThread is a no-op where CPU affinity is not available: timings are then
// calibrated against whichever CPUs the scheduler picks.
func pinThread(slot int) (restore func()) { return func() {} }
