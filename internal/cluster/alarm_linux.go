//go:build linux

package cluster

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes the runtime on time for a worker's sleeps. With every P
// idle, Go parks in epoll_wait with a whole-millisecond timeout, so a
// time.Timer due between two milliseconds fires up to a millisecond late.
// The alarm is a non-blocking Linux timerfd that the runtime's poller
// watches and nobody reads: armed for the instant the worker's Go timer
// is due, its expiry ends the poller's wait within tens of microseconds
// and the runtime then fires the due timer itself. The timer still
// delivers the wake-up, so the selects around it are unchanged.
type alarm struct {
	f    *os.File
	fd   uintptr
	spec struct{ interval, value syscall.Timespec }
}

// newAlarm returns nil when no timerfd can be had; the worker then sleeps
// on its Go timers alone.
func newAlarm() *alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// poller (File.Fd would switch it back to blocking, so fd is kept from
	// here). The owning worker alone arms and closes it.
	return &alarm{f: os.NewFile(fd, "alarm"), fd: fd}
}

// set arms the alarm to expire d from now, replacing any earlier setting.
// timerfd_settime does not block, so it skips the scheduler's syscall
// bookkeeping. Its error is dropped: a failed arming only loses the early
// wake-up, and the Go timer still fires.
func (a *alarm) set(d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.spec.value = syscall.NsecToTimespec(int64(d))
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
}

func (a *alarm) close() {
	if a != nil {
		a.f.Close()
	}
}
