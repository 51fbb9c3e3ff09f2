package comm

import (
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

// threadAffinity reads the CPU mask of thread tid (0: the calling thread).
func threadAffinity(tid int) (s cpuSet, ok bool) {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	return s, e == 0
}

func setAffinity(s *cpuSet) {
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
}

// allowedCPUs lists the CPUs the process may run on, read once at start.
var allowedCPUs = func() []int {
	s, ok := threadAffinity(0)
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

// bindThread binds the calling OS thread, which the caller has locked, to
// the slot-th CPU the process may run on, and returns a function restoring
// the thread's previous mask.
func bindThread(slot int) (restore func()) {
	old, ok := threadAffinity(0)
	if !ok || slot >= len(allowedCPUs) {
		return func() {}
	}
	var one cpuSet
	cpu := allowedCPUs[slot]
	one[cpu/64] = 1 << (cpu % 64)
	setAffinity(&one)
	return func() { setAffinity(&old) }
}

// osYield gives the CPU to any other runnable thread on it.
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
