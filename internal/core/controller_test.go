package core

import (
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/controller"
	"arlo/internal/obs"
)

// ctrlVT maps a virtual offset onto the absolute timeline the obs window
// slots on: the controller tests here drive Step/Autoscale with explicit
// timestamps instead of wall-clock sleeps.
func ctrlVT(d time.Duration) time.Time { return time.Unix(0, 0).Add(d) }

func TestNewControllerValidation(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewController(nil, controller.Options{}); err == nil {
		t.Error("nil cluster should fail")
	}
}

func TestNewControllerInstallsRecorderAndPeriod(t *testing.T) {
	a, err := NewSystem(WithAllocPeriod(42 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Observer() != nil {
		t.Fatal("cluster unexpectedly starts with an observer")
	}
	ctrl, err := a.NewController(cl, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Observer() == nil {
		t.Fatal("NewController did not install an observability recorder")
	}
	if cl.Observer().LengthDist() == nil {
		t.Fatal("installed recorder has no length bins")
	}
	if st := ctrl.Status(); st.PeriodMS != 42000 {
		t.Fatalf("controller period = %gms, want the system's AllocPeriod (42000ms)", st.PeriodMS)
	}
}

func TestControllerReallocatesTowardDemand(t *testing.T) {
	// Hysteresis off: the even split satisfies the light synthetic demand,
	// so with the default margin the controller would (correctly) hold it.
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil) // even split: one instance per runtime
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := a.NewController(cl, controller.Options{Hysteresis: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Pure short traffic in the observation window: replanning must walk
	// the topology to the solver's target for that demand. Fed at virtual
	// timestamps — no wall-clock control loop involved.
	rec := cl.Observer()
	now := ctrlVT(time.Minute)
	for i := 0; i < 400; i++ {
		rec.RecordSpanAt(&obs.Span{Length: 20, Total: 2 * time.Millisecond, Instance: i}, now)
	}
	var target []int
	for period := 0; period < 8; period++ { // budget-bounded: iterate periods to convergence
		res := ctrl.Step(now)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		target = res.Target
		if res.Applied == 0 {
			break
		}
	}
	alloc := cl.Allocation()
	if len(target) == 0 {
		t.Fatal("controller never produced a target")
	}
	for i := range alloc {
		if alloc[i] != target[i] {
			t.Fatalf("allocation %v did not converge to solver target %v", alloc, target)
		}
	}
	if st := ctrl.Status(); st.Replans == 0 || st.Replacements == 0 {
		t.Errorf("expected replans and replacements, status %+v", st)
	}
	if got := cl.Instances(); got != 8 {
		t.Errorf("fixed pool should stay at 8 instances, got %d", got)
	}
}

func TestControllerAutoScalesOut(t *testing.T) {
	scaler, err := allocator.NewAutoScaler(150 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSystem(WithSLO(150 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := a.NewController(cl, controller.Options{Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}

	// Latencies right at the SLO: the target tracker sees pressure and
	// adds a worker on the first observation.
	rec := cl.Observer()
	now := ctrlVT(time.Minute)
	for i := 0; i < 200; i++ {
		rec.RecordSpanAt(&obs.Span{Length: 100, Total: a.SLO(), Instance: i}, now)
	}
	if act := ctrl.Autoscale(now); act != allocator.ScaleOut {
		t.Fatalf("autoscale = %v, want scale-out", act)
	}
	if got := cl.Instances(); got != 9 {
		t.Errorf("instances = %d, want 9 after scale-out", got)
	}
}

func TestControllerStopIdempotent(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := a.NewController(cl, controller.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	ctrl.Stop()
	// A second Stop must not panic or deadlock.
	done := make(chan struct{})
	go func() {
		ctrl.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("second Stop deadlocked")
	}
}
