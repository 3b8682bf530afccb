package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are read on the process CPU clock, not the wall
// clock. On a virtual machine that shares its host, the hypervisor runs
// other guests on the benchmark's cores ("steal"); a wall clock counts
// that time as the program's, a CPU clock with the kernel's steal
// accounting does not. On a shared 2-vCPU VM, steal reached 40% of the
// benchmark's CPU time for minutes at a time: a fixed loop read 165 to
// 581 ms on the wall clock and 161 to 168 ms on this one, and ten runs
// of one workload spread by half their median on the wall clock.
//
// What the CPU clock does not see: time a request spends waiting with no
// thread of the process running (sleeps, timers, an idle queue), and the
// wall time parallel work saves. A closed loop with one request in flight
// reads the whole process's CPU time as that request's cost. Wall-clock
// figures are printed beside the metrics for that reason.

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID (Linux)

// cpuNow returns the CPU time used so far by all threads of the process.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stamp is one instant on both clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuNow()} }

// elapsed is the time between two stamps on both clocks, in ms.
type elapsed struct{ wall, cpu float64 }

func (s stamp) to(e stamp) elapsed {
	return elapsed{wall: msBetween(s.wall, e.wall), cpu: float64((e.cpu - s.cpu).Nanoseconds()) / 1e6}
}

func (s stamp) since() elapsed { return s.to(now()) }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
