package main

import (
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on, or nil if the
// kernel does not say.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0]))); e != 0 {
		return nil
	}
	var cpus []int
	for i := range m {
		for b := 0; b < 64; b++ {
			if m[i]&(1<<b) != 0 {
				cpus = append(cpus, 64*i+b)
			}
		}
	}
	return cpus
}

// pinThread binds the calling OS thread to cpu. The caller must hold
// the thread with runtime.LockOSThread and never unlock it, so that
// the thread, and its affinity, end with the goroutine.
func pinThread(cpu int) {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
}
