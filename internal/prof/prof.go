// Package prof gives a command the two standard profiling flags,
// -cpuprofile and -memprofile, so a hot spot can be sized with
// `go tool pprof` on the real binary instead of a throw-away test.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile and -memprofile on fs and returns start. Call
// start after fs.Parse: it begins the CPU profile (if asked for) and
// returns stop, which ends it and writes the heap profile —
// allocation totals included, see `go tool pprof -sample_index=alloc_space`.
// With neither flag set both are no-ops. A profile that cannot be written
// is reported on stderr and exits the command with status 2.
func Flags(fs *flag.FlagSet) (start func() (stop func())) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write a heap/allocation profile to this file when the run ends")
	return func() func() {
		var cpuFile *os.File
		if *cpu != "" {
			cpuFile = create(*cpu)
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				fail(err)
			}
		}
		return func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fail(err)
				}
			}
			if *mem != "" {
				f := create(*mem)
				runtime.GC() // settle the in-use figures
				if err := pprof.WriteHeapProfile(f); err != nil {
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(err)
				}
			}
		}
	}
}

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	return f
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(2)
}
