package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the thread in nanosleep(2) for d, or until a
// signal interrupts it.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
