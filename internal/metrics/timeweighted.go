package metrics

import "time"

// TimeWeighted tracks a step function of time (such as the number of
// provisioned GPUs under auto-scaling) and computes its time-weighted
// average — the headline statistic of Fig. 8 ("time-weighted GPU number of
// 5.49"). Values change at Set calls and hold until the next change.
type TimeWeighted struct {
	started  bool
	start    time.Duration // virtual timestamp of the first observation
	last     time.Duration // virtual timestamp of the latest Set
	lastVal  float64
	weighted float64 // integral of value dt up to last
}

// Set records that the tracked value changed to v at virtual time at.
// Calls must have non-decreasing timestamps; out-of-order calls are
// clamped to the latest timestamp seen.
func (w *TimeWeighted) Set(at time.Duration, v float64) {
	if !w.started {
		w.started = true
		w.start, w.last, w.lastVal = at, at, v
		return
	}
	if at < w.last {
		at = w.last
	}
	w.weighted += w.lastVal * float64(at-w.last)
	w.last = at
	w.lastVal = v
}

// Average returns the time-weighted average of the value over [start, end].
// end must be at or after the last Set; earlier values are clamped.
func (w *TimeWeighted) Average(end time.Duration) float64 {
	if !w.started {
		return 0
	}
	if end < w.last {
		end = w.last
	}
	total := w.weighted + w.lastVal*float64(end-w.last)
	span := float64(end - w.start)
	if span <= 0 {
		return w.lastVal
	}
	return total / span
}

// Last returns the most recent value, or 0 before any Set.
func (w *TimeWeighted) Last() float64 { return w.lastVal }
