//go:build !linux

package comm

import "runtime"

// allowedCPUs is empty where CPU affinity is not available, so no run binds.
var allowedCPUs []int

func bindThread(slot int) (restore func()) { return func() {} }

// osYield lets other goroutines run; there is no sched_yield to call here.
func osYield() { runtime.Gosched() }
