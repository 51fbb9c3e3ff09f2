package main

import (
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

func getAffinity() (s cpuSet, ok bool) {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	return s, e == 0
}

func setAffinity(s *cpuSet) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
}

// allowedCPUs lists the CPUs the process may run on, read once at start.
var allowedCPUs = func() []int {
	s, ok := getAffinity()
	if !ok {
		return nil
	}
	var cpus []int
	for i := 0; i < 64*len(s); i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}()

// pinThread binds the calling OS thread (which the caller has locked) to the
// slot-th CPU the process is allowed on, and returns a function restoring the
// previous mask. On a shared VM each vCPU has its own, separately drifting
// speed, so a rep and the calibration samples that bracket it must run on
// the same vCPUs for the drift to cancel.
func pinThread(slot int) (restore func()) {
	old, ok := getAffinity()
	if !ok || slot >= len(allowedCPUs) {
		return func() {}
	}
	var one cpuSet
	cpu := allowedCPUs[slot]
	one[cpu/64] = 1 << (cpu % 64)
	setAffinity(&one)
	return func() { setAffinity(&old) }
}
