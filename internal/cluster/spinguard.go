//go:build !goexperiment.synctest

package cluster

import "time"

// spinGuard is the longest kernel that is busy-waited instead of slept.
// A longer kernel sleeps to its deadline on the worker's timer, with the
// alarm armed for the same instant so the wake-up lands within tens of
// microseconds of it; a shorter one would pay that wake-up's latency on
// top of its cost, so it spins. Every closed-loop benchmark kernel at
// TimeScale 1e-4 is below it. A build with GOEXPERIMENT=synctest sets it
// to 0 instead (spinguard_virtual.go).
const spinGuard = 50 * time.Microsecond
