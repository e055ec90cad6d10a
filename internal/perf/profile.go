package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile serves a command's -cpuprofile and -memprofile flags: it starts
// a CPU profile into cpuFile, and the returned stop writes a heap profile
// into memFile and then ends the CPU profile. An empty name skips that
// profile. A heap-profile error comes after the command's own output, so
// stop reports it on stderr, prefixed with cmd, instead of failing the run.
func Profile(cmd, cpuFile, memFile string) (stop func(), err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if memFile != "" {
			if err := writeHeapProfile(memFile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", cmd, err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
	}, nil
}

func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live data
	return pprof.WriteHeapProfile(f)
}
