package obs

import (
	"strings"
	"testing"
	"time"

	"arlo/internal/dispatch"
)

// vt maps a virtual offset onto the absolute timeline the window slots on.
func vt(d time.Duration) time.Time { return time.Unix(0, 0).Add(d) }

func spanAt(r *Recorder, length int, total time.Duration, at time.Time) {
	r.RecordSpanAt(&Span{Length: length, Total: total, Decision: dispatch.Decision{Instance: length}}, at)
}

func TestArrivalBinsKnownDistribution(t *testing.T) {
	r := NewRecorder(4)
	r.SetLengthBins([]int{64, 128, 256, 512})

	// A known mixture inside one period: 50 short, 30 medium, 15 large,
	// 5 clamped past the last runtime, and one non-positive length that
	// counts as a submission but in no bin.
	for i := 0; i < 50; i++ {
		r.RecordSubmit(32)
	}
	for i := 0; i < 30; i++ {
		r.RecordSubmit(100)
	}
	for i := 0; i < 15; i++ {
		r.RecordSubmit(256)
	}
	for i := 0; i < 5; i++ {
		r.RecordSubmit(9999)
	}
	r.RecordSubmit(0)

	dist := r.TakeArrivals()
	want := []int64{50, 30, 15, 5}
	if len(dist) != len(want) {
		t.Fatalf("TakeArrivals len = %d, want %d", len(dist), len(want))
	}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, dist[i], want[i])
		}
	}
	if n := r.Submitted(); n != 101 {
		t.Errorf("Submitted = %d, want 101", n)
	}
	// A take starts the next period: every bin is back at zero.
	for i, n := range r.TakeArrivals() {
		if n != 0 {
			t.Errorf("bin %d = %d after a take, want 0", i, n)
		}
	}
}

func TestArrivalBinsFollowDrift(t *testing.T) {
	r := NewRecorder(2)
	r.SetLengthBins([]int{128, 512})

	r.RecordSubmit(64)
	if dist := r.TakeArrivals(); dist[0] != 1 || dist[1] != 0 {
		t.Fatalf("first period = %v, want [1 0]", dist)
	}
	// An idle period reads empty, though nothing was ever overwritten.
	if dist := r.TakeArrivals(); dist[0] != 0 || dist[1] != 0 {
		t.Fatalf("idle period = %v, want [0 0]", dist)
	}
	// Drift: the next period is all long requests; only they are counted.
	for i := 0; i < 10; i++ {
		r.RecordSubmit(400)
	}
	if dist := r.TakeArrivals(); dist[0] != 0 || dist[1] != 10 {
		t.Fatalf("post-drift period = %v, want [0 10]", dist)
	}
}

func TestWindowEvictsOldSlots(t *testing.T) {
	r := NewRecorder(1)
	now := vt(40 * time.Second)
	// Samples spread across the trailing window all count.
	spanAt(r, 32, time.Millisecond, now)
	spanAt(r, 32, time.Millisecond, now.Add(-9*time.Second))
	spanAt(r, 32, time.Millisecond, now.Add(-30*time.Second))
	if n := r.WindowSamples(now); n != 3 {
		t.Fatalf("WindowSamples = %d, want 3", n)
	}
	// One full window later every slot is stale: excluded even though
	// its counters were never overwritten.
	later := now.Add(WindowSpan + 8*time.Second)
	if n := r.WindowSamples(later); n != 0 {
		t.Fatalf("stale samples still visible at +window: %d", n)
	}
	// Refilled, the window holds only the new samples.
	for i := 0; i < 10; i++ {
		spanAt(r, 400, time.Millisecond, later)
	}
	if n := r.WindowSamples(later); n != 10 {
		t.Fatalf("refilled window holds %d samples, want 10", n)
	}
}

func TestWindowFutureSamplesExcluded(t *testing.T) {
	r := NewRecorder(1)
	spanAt(r, 10, time.Millisecond, vt(200*time.Second))
	if n := r.WindowSamples(vt(100 * time.Second)); n != 0 {
		t.Fatalf("future sample visible in earlier query: %d", n)
	}
}

func TestWindowP98KnownDistribution(t *testing.T) {
	r := NewRecorder(1)
	now := vt(10 * time.Second)

	// 98 fast + 2 slow: nearest rank 98 lands in the fast bucket whose
	// upper boundary is exactly 1ms (125µs << 3).
	for i := 0; i < 98; i++ {
		spanAt(r, 1, time.Millisecond, now)
	}
	for i := 0; i < 2; i++ {
		spanAt(r, 1, 100*time.Millisecond, now)
	}
	if got := r.P98At(now); got != time.Millisecond {
		t.Fatalf("P98 = %v, want 1ms", got)
	}

	// One more slow sample tips rank 98 past the fast bucket: p98 resolves
	// to the 100ms bucket's upper boundary, 128ms (125µs << 10).
	spanAt(r, 1, 100*time.Millisecond, now)
	if got := r.P98At(now); got != 128*time.Millisecond {
		t.Fatalf("P98 after tip = %v, want 128ms", got)
	}
	// Other quantiles come through the same accessor: the median is still
	// in the fast bucket, the maximum in the slow one.
	if p50, p100 := r.QuantileAt(0.50, now), r.QuantileAt(1, now); p50 != time.Millisecond || p100 != 128*time.Millisecond {
		t.Fatalf("p50, p100 = %v, %v, want 1ms, 128ms", p50, p100)
	}
}

func TestWindowP98EmptyIsZero(t *testing.T) {
	r := NewRecorder(1)
	if got := r.P98At(vt(0)); got != 0 {
		t.Fatalf("empty-window P98 = %v, want 0", got)
	}
}

func TestWindowDefaults(t *testing.T) {
	r := NewRecorder(2)
	// No bins installed: submissions count, arrivals are booked nowhere,
	// and latency is still windowed.
	r.RecordSubmit(10)
	if dist := r.TakeArrivals(); len(dist) != 0 {
		t.Fatalf("TakeArrivals without bins = %v, want empty", dist)
	}
	r.RecordSpan(&Span{Length: 10, Total: time.Millisecond})
	if r.P98At(time.Now()) == 0 {
		t.Fatal("wall-clock RecordSpan did not reach the window")
	}
}

func TestControllerStatsRendered(t *testing.T) {
	r := NewRecorder(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "arlo_controller_") {
		t.Fatal("controller metrics rendered without an installed callback")
	}

	r.SetControllerStats(func() ControllerStat {
		return ControllerStat{Replans: 3, PlansHeld: 1, Replacements: 5, ScaleOuts: 2, ScaleIns: 1, GPUs: 8, DryRun: true}
	})
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"arlo_controller_replans_total 3",
		"arlo_controller_plans_held_total 1",
		"arlo_controller_replacements_total 5",
		`arlo_controller_scale_total{direction="out"} 2`,
		`arlo_controller_scale_total{direction="in"} 1`,
		"arlo_controller_gpus 8",
		"arlo_controller_dry_run 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
