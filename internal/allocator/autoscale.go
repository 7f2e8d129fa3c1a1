package allocator

import (
	"fmt"
	"time"
)

// ScaleAction is an auto-scaler decision.
type ScaleAction int

const (
	// ScaleNone keeps the cluster size.
	ScaleNone ScaleAction = iota
	// ScaleOut adds one GPU worker, loaded with the maximum-length
	// runtime so it can immediately absorb any request.
	ScaleOut
	// ScaleIn releases the least busy instance.
	ScaleIn
)

// String returns the action name.
func (a ScaleAction) String() string {
	switch a {
	case ScaleNone:
		return "none"
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	default:
		return fmt.Sprintf("ScaleAction(%d)", int(a))
	}
}

// The section 4 scaling policy's constants (the paper's and INFaaS's
// values; nothing tunes them).
const (
	// scaleOutFraction and scaleInFraction are the target tracker's
	// p98/SLO thresholds.
	scaleOutFraction, scaleInFraction = 0.95, 0.50
	// headroomOut and headroomIn are the headroom heuristic's utilization
	// thresholds.
	headroomOut, headroomIn = 0.8, 0.3
	// scaleInPeriod is how long the signal must stay low before a worker
	// is released.
	scaleInPeriod = 60 * time.Second
	// scaleOutCooldown rate-limits consecutive scale-outs so one burst
	// does not add a worker per observation tick.
	scaleOutCooldown = 5 * time.Second
	// minGPUs is the pool size scale-in never goes below.
	minGPUs = 1
)

// AutoScaler implements the paper's target-tracking scaling policy
// (section 4): a worker is added when the p98 latency of recently executed
// requests reaches 95% of the SLO; the least busy instance is released
// when the p98 stays below 50% of the SLO over a 60-second evaluation
// period. The Runtime Scheduler re-optimizes the allocation after every
// action.
type AutoScaler struct {
	// SLO is the stream's latency objective.
	SLO time.Duration

	lastOut     time.Duration
	inWindowOK  bool // p98 stayed under the scale-in threshold all window
	windowStart time.Duration
	started     bool
}

// NewAutoScaler returns an AutoScaler for the given SLO.
func NewAutoScaler(slo time.Duration) (*AutoScaler, error) {
	if slo <= 0 {
		return nil, fmt.Errorf("allocator: autoscaler needs a positive SLO, got %v", slo)
	}
	return &AutoScaler{SLO: slo}, nil
}

// Scaler abstracts the auto-scaling policy the serving loop consults:
// target tracking (AutoScaler, Arlo's choice) or headroom-based
// (HeadroomScaler, the INFaaS-style heuristic the paper equips ST, DT and
// INFaaS with). Observations carry both the recent p98 latency and the
// cluster's queue utilization so either signal can drive the decision.
type Scaler interface {
	// ObserveLoad reports the recent p98 latency and the cluster-wide
	// queue utilization (outstanding work / SLO capacity, 0..1+) at
	// virtual time now with the current GPU count, returning an action.
	ObserveLoad(now time.Duration, p98 time.Duration, utilization float64, gpus int) ScaleAction
}

// ObserveLoad implements Scaler for the target-tracking policy: it keys on
// the latency signal and ignores utilization. Callers apply the action and
// continue observing.
func (a *AutoScaler) ObserveLoad(now time.Duration, p98 time.Duration, _ float64, gpus int) ScaleAction {
	if !a.started {
		a.started = true
		a.windowStart = now
		a.inWindowOK = true
		a.lastOut = now - scaleOutCooldown // allow an immediate first scale-out
	}
	if p98 >= time.Duration(scaleOutFraction*float64(a.SLO)) {
		a.inWindowOK = false
		a.windowStart = now // any pressure restarts the scale-in window
		if now-a.lastOut >= scaleOutCooldown {
			a.lastOut = now
			return ScaleOut
		}
		return ScaleNone
	}
	if p98 >= time.Duration(scaleInFraction*float64(a.SLO)) {
		// Comfortable but not idle: reset the scale-in window.
		a.inWindowOK = true
		a.windowStart = now
		return ScaleNone
	}
	// Below the scale-in threshold: release a worker only after a full
	// quiet period.
	if !a.inWindowOK {
		a.inWindowOK = true
		a.windowStart = now
		return ScaleNone
	}
	if now-a.windowStart >= scaleInPeriod && gpus > minGPUs {
		a.windowStart = now
		return ScaleIn
	}
	return ScaleNone
}

// HeadroomScaler is the INFaaS-style heuristic (paper section 5,
// "Compared schemes"): keep a utilization headroom by adding a worker
// when cluster queue utilization reaches 0.8 and releasing one when it
// stays under 0.3 for a full 60 s. It never looks at latency. The zero
// value is ready to use.
type HeadroomScaler struct {
	started     bool
	lastOut     time.Duration
	windowStart time.Duration
}

// ObserveLoad implements Scaler.
func (h *HeadroomScaler) ObserveLoad(now time.Duration, _ time.Duration, utilization float64, gpus int) ScaleAction {
	if !h.started {
		h.started = true
		h.windowStart = now
		h.lastOut = now - scaleOutCooldown
	}
	if utilization >= headroomOut {
		h.windowStart = now
		if now-h.lastOut >= scaleOutCooldown {
			h.lastOut = now
			return ScaleOut
		}
		return ScaleNone
	}
	if utilization >= headroomIn {
		h.windowStart = now
		return ScaleNone
	}
	if now-h.windowStart >= scaleInPeriod && gpus > minGPUs {
		h.windowStart = now
		return ScaleIn
	}
	return ScaleNone
}
