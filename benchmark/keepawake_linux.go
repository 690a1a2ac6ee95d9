package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// schedIdle is SCHED_IDLE of sched(7): below every nice level, and any
// process may choose it for itself.
const schedIdle = 5

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() ([]int, error) {
	var mask [16]uint64 // 1024 processors
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// idleClassOn pins the calling thread to one processor and puts it in
// the idle scheduling class.
func idleClassOn(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity to processor %d: %w", cpu, errno)
	}
	var param struct{ priority int32 } // 0, the only priority of the class
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	// A kernel stand-in may accept the call and ignore it; a thread that
	// spins at normal priority would take half a processor from the
	// workload.
	if got, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, 0, 0, 0); errno != 0 || got != schedIdle {
		return fmt.Errorf("the thread is in scheduling class %d after sched_setscheduler(SCHED_IDLE)", got)
	}
	return nil
}
