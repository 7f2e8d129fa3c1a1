package allocator

import (
	"testing"
	"time"
)

func newScaler(t *testing.T) *AutoScaler {
	t.Helper()
	a, err := NewAutoScaler(450 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAutoScalerValidation(t *testing.T) {
	if _, err := NewAutoScaler(0); err == nil {
		t.Error("zero SLO should fail")
	}
}

func TestScaleOutOnPressure(t *testing.T) {
	a := newScaler(t)
	// p98 at 95% of the SLO triggers an immediate scale-out.
	if got := a.ObserveLoad(0, 428*time.Millisecond, 0, 5); got != ScaleOut {
		t.Errorf("action = %v, want scale-out", got)
	}
	// Cooldown suppresses an immediate second scale-out.
	if got := a.ObserveLoad(time.Second, 440*time.Millisecond, 0, 6); got != ScaleNone {
		t.Errorf("action during cooldown = %v, want none", got)
	}
	// After the cooldown, pressure scales out again.
	if got := a.ObserveLoad(7*time.Second, 440*time.Millisecond, 0, 6); got != ScaleOut {
		t.Errorf("action after cooldown = %v, want scale-out", got)
	}
}

func TestScaleInAfterQuietPeriod(t *testing.T) {
	a := newScaler(t)
	low := 100 * time.Millisecond // < 50% of 450 ms
	if got := a.ObserveLoad(0, low, 0, 8); got != ScaleNone {
		t.Errorf("first observation = %v, want none", got)
	}
	if got := a.ObserveLoad(30*time.Second, low, 0, 8); got != ScaleNone {
		t.Errorf("mid-window = %v, want none", got)
	}
	if got := a.ObserveLoad(61*time.Second, low, 0, 8); got != ScaleIn {
		t.Errorf("after 60s quiet = %v, want scale-in", got)
	}
	// The window restarts after an action.
	if got := a.ObserveLoad(62*time.Second, low, 0, 7); got != ScaleNone {
		t.Errorf("right after scale-in = %v, want none", got)
	}
}

func TestScaleInBlockedByPressureSpike(t *testing.T) {
	a := newScaler(t)
	low := 100 * time.Millisecond
	mid := 300 * time.Millisecond // between 50% and 95%
	a.ObserveLoad(0, low, 0, 8)
	a.ObserveLoad(30*time.Second, mid, 0, 8) // comfort-zone reading resets the window
	if got := a.ObserveLoad(61*time.Second, low, 0, 8); got != ScaleNone {
		t.Errorf("window should have been reset, got %v", got)
	}
	if got := a.ObserveLoad(91*time.Second, low, 0, 8); got != ScaleIn {
		t.Errorf("after fresh 60s quiet = %v, want scale-in", got)
	}
}

func TestScaleInRespectsMin(t *testing.T) {
	a := newScaler(t)
	low := 50 * time.Millisecond
	a.ObserveLoad(0, low, 0, minGPUs)
	if got := a.ObserveLoad(2*time.Minute, low, 0, minGPUs); got != ScaleNone {
		t.Errorf("at minGPUs action = %v, want none", got)
	}
}

func TestPressureResetsQuietWindow(t *testing.T) {
	a := newScaler(t)
	low := 50 * time.Millisecond
	hot := 440 * time.Millisecond
	a.ObserveLoad(0, low, 0, 4)
	a.ObserveLoad(50*time.Second, hot, 0, 4) // scale-out likely; window must reset
	if got := a.ObserveLoad(70*time.Second, low, 0, 5); got == ScaleIn {
		t.Error("quiet window must restart after pressure")
	}
	if got := a.ObserveLoad(131*time.Second, low, 0, 5); got != ScaleIn {
		t.Errorf("after a full fresh window = %v, want scale-in", got)
	}
}

func TestScaleActionString(t *testing.T) {
	if ScaleNone.String() != "none" || ScaleOut.String() != "scale-out" || ScaleIn.String() != "scale-in" {
		t.Error("bad action strings")
	}
	if ScaleAction(9).String() == "" {
		t.Error("unknown action should still print")
	}
}

func TestHeadroomScalerScalesOutOnUtilization(t *testing.T) {
	h := &HeadroomScaler{}
	if got := h.ObserveLoad(0, 0, 0.85, 5); got != ScaleOut {
		t.Errorf("85%% utilization = %v, want scale-out", got)
	}
	// Cooldown suppresses back-to-back scale-outs.
	if got := h.ObserveLoad(time.Second, 0, 0.9, 6); got != ScaleNone {
		t.Errorf("during cooldown = %v, want none", got)
	}
	if got := h.ObserveLoad(7*time.Second, 0, 0.9, 6); got != ScaleOut {
		t.Errorf("after cooldown = %v, want scale-out", got)
	}
}

func TestHeadroomScalerScalesInAfterQuiet(t *testing.T) {
	h := &HeadroomScaler{}
	if got := h.ObserveLoad(0, 0, 0.1, 5); got != ScaleNone {
		t.Errorf("first low reading = %v, want none", got)
	}
	if got := h.ObserveLoad(61*time.Second, 0, 0.1, 5); got != ScaleIn {
		t.Errorf("after 60s quiet = %v, want scale-in", got)
	}
	// Mid-band readings reset the window.
	h2 := &HeadroomScaler{}
	h2.ObserveLoad(0, 0, 0.1, 5)
	h2.ObserveLoad(30*time.Second, 0, 0.5, 5)
	if got := h2.ObserveLoad(61*time.Second, 0, 0.1, 5); got != ScaleNone {
		t.Errorf("window should have been reset, got %v", got)
	}
}

func TestHeadroomScalerRespectsBounds(t *testing.T) {
	h := &HeadroomScaler{}
	h.ObserveLoad(0, 0, 0.1, minGPUs)
	if got := h.ObserveLoad(2*time.Minute, 0, 0.1, minGPUs); got != ScaleNone {
		t.Errorf("at minGPUs = %v, want none", got)
	}
}

func TestAutoScalerImplementsScaler(t *testing.T) {
	var _ Scaler = &AutoScaler{}
	var _ Scaler = &HeadroomScaler{}
	a := newScaler(t)
	// Target tracking keys on latency and ignores utilization.
	if got := a.ObserveLoad(0, 449*time.Millisecond, 0.0, 5); got != ScaleOut {
		t.Errorf("target tracking via ObserveLoad = %v, want scale-out", got)
	}
}
