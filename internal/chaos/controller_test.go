package chaos

import (
	"testing"
	"time"

	"arlo/internal/controller"
)

// TestConservationManySeedsController re-runs the conservation sweep with
// the closed control loop live: every quarter of the trace the controller
// re-solves the allocation program from the observed length distribution
// and applies the replacement plan, so replans race the scripted crashes,
// slowdowns, rejoins and client cancellations. The invariants do not
// bend: a controller-driven Replace displaces queued and in-flight work
// exactly like a crash does, and every submitted request must still
// resolve exactly once with the observability books in balance. Run with
// -race to also audit the replan/failover synchronization.
func TestConservationManySeedsController(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 40
	}
	p := testProfile(t)
	sawReplacement := false
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{
			Profile: p,
			// Deliberately lopsided for the mostly-short Twitter lengths:
			// the solver wants GPUs on the small runtime, so replans have
			// real replacements to apply while the schedule fires.
			Allocation: []int{1, 3},
			Trace:      testTrace(t, int64(seed), 150, 200*time.Millisecond),
			// One control period is a quarter of the trace, and Run sizes
			// the recorder's window to it in wall time: 2.5 ms here. At the
			// other sweeps' 0.02 it would be 1 ms, inside scheduler jitter,
			// and a seed could find every window empty and never replan.
			TimeScale:      0.05,
			Seed:           int64(seed),
			CancelFraction: 0.2,
			Controller:     &controller.Options{Hysteresis: -1, MaxReplacements: -1},
			Events: []Event{
				{At: 20 * time.Millisecond, Kind: Slow, Runtime: 1, Factor: 3},
				{At: 50 * time.Millisecond, Kind: Fail, Runtime: 1, Downtime: 60 * time.Millisecond},
				{At: 100 * time.Millisecond, Kind: Fail, Runtime: -1, Downtime: 0},
			},
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Submitted != len(cfg.Trace.Requests) {
			t.Fatalf("seed %d: submitted %d of %d trace requests", seed, rep.Submitted, len(cfg.Trace.Requests))
		}
		if rep.Replans == 0 {
			t.Fatalf("seed %d: controller mode ran without a single replan", seed)
		}
		if rep.Replacements > 0 {
			sawReplacement = true
		}
	}
	if !sawReplacement {
		t.Error("no seed produced a controller replacement; the sweep never exercised the replan/failover race")
	}
}

// TestControllerReplansConverge pins the control loop's steady-state
// effect without faults: the start is lopsided against the mostly-short
// Twitter lengths, the windowed demand estimate (one control period of
// wall time, sized by Run) sees that, and periodic replans move GPUs from
// the overweight max-length runtime to the small one — and the books still
// balance afterwards. The time scale keeps one period at 10 ms of wall
// time, well clear of scheduler jitter.
func TestControllerReplansConverge(t *testing.T) {
	p := testProfile(t)
	rep, err := Run(Config{
		Profile:          p,
		Allocation:       []int{1, 3},
		Trace:            testTrace(t, 5, 300, 400*time.Millisecond),
		TimeScale:        0.2,
		Controller:       &controller.Options{Hysteresis: -1, MaxReplacements: -1},
		ControllerPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Replans < 2 {
		t.Errorf("replans = %d, want at least 2 over the run", rep.Replans)
	}
	if rep.Replacements == 0 {
		t.Error("controller applied no replacements from a lopsided start")
	}
	if got := rep.FinalAllocation[0]; got < 2 {
		t.Errorf("final allocation %v: runtime 0 should have gained GPUs for the short-heavy mix", rep.FinalAllocation)
	}
	gpus := 0
	for _, n := range rep.FinalAllocation {
		gpus += n
	}
	if gpus != 4 {
		t.Errorf("replanning must conserve the GPU pool: final %v sums to %d, want 4", rep.FinalAllocation, gpus)
	}
	if want := time.Duration(float64(50*time.Millisecond) * 0.2); rep.Recorder.WindowSpan() != want {
		t.Errorf("recorder window = %v, want one control period of wall time (%v)", rep.Recorder.WindowSpan(), want)
	}
}
