package main

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the CPU time the calling OS thread has used. It is
// only meaningful on a goroutine locked to its thread.
func threadCPU() int64 {
	var ts syscall.Timespec
	// Cannot fail for a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
