//go:build !linux

package main

import "time"

// sleepPrecise falls back to a Go timer where nanosleep(2) is not in
// package syscall.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
