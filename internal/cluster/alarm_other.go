//go:build !linux

package cluster

import "time"

// alarm has no timerfd to arm off Linux: workers sleep on their Go timers
// alone, which wake on the runtime poller's millisecond.
type alarm struct{}

func newAlarm() *alarm           { return nil }
func (*alarm) set(time.Duration) {}
func (*alarm) close()            {}
