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

func TestWindowLengthDistKnownDistribution(t *testing.T) {
	r := NewRecorder(4)
	r.SetLengthBins([]int{64, 128, 256, 512})
	r.SetWindow(80 * time.Second) // 10s slots

	// A known mixture inside one window: 50 short, 30 medium, 15 large,
	// 5 clamped past the last runtime.
	now := vt(40 * time.Second)
	for i := 0; i < 50; i++ {
		spanAt(r, 32, time.Millisecond, now)
	}
	for i := 0; i < 30; i++ {
		spanAt(r, 100, time.Millisecond, now.Add(-9*time.Second))
	}
	for i := 0; i < 15; i++ {
		spanAt(r, 256, time.Millisecond, now.Add(-30*time.Second))
	}
	for i := 0; i < 5; i++ {
		spanAt(r, 9999, time.Millisecond, now)
	}

	dist := r.LengthDistAt(now)
	want := []int64{50, 30, 15, 5}
	if len(dist) != len(want) {
		t.Fatalf("LengthDistAt len = %d, want %d", len(dist), len(want))
	}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, dist[i], want[i])
		}
	}
	if n := r.WindowSamples(now); n != 100 {
		t.Errorf("WindowSamples = %d, want 100", n)
	}
}

func TestWindowEvictsOldSlots(t *testing.T) {
	r := NewRecorder(2)
	r.SetLengthBins([]int{128, 512})
	r.SetWindow(80 * time.Second)

	spanAt(r, 64, time.Millisecond, vt(5*time.Second))
	if dist := r.LengthDistAt(vt(5 * time.Second)); dist[0] != 1 {
		t.Fatalf("fresh sample not visible: %v", dist)
	}
	// One full window later the sample's slot is stale: excluded even
	// though its counters were never overwritten.
	later := vt(5*time.Second + 81*time.Second)
	if dist := r.LengthDistAt(later); dist[0] != 0 || dist[1] != 0 {
		t.Fatalf("stale sample still visible at +window: %v", dist)
	}
	// Drift: refill with long requests; only they are observed.
	for i := 0; i < 10; i++ {
		spanAt(r, 400, time.Millisecond, later)
	}
	dist := r.LengthDistAt(later)
	if dist[0] != 0 || dist[1] != 10 {
		t.Fatalf("post-drift dist = %v, want [0 10]", dist)
	}
}

func TestWindowFutureSamplesExcluded(t *testing.T) {
	r := NewRecorder(1)
	r.SetLengthBins([]int{512})
	r.SetWindow(80 * time.Second)
	spanAt(r, 10, time.Millisecond, vt(200*time.Second))
	if dist := r.LengthDistAt(vt(100 * time.Second)); dist[0] != 0 {
		t.Fatalf("future sample visible in earlier query: %v", dist)
	}
}

func TestWindowP98KnownDistribution(t *testing.T) {
	r := NewRecorder(1)
	r.SetWindow(80 * time.Second)
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
	if got := r.WindowSpan(); got != 60*time.Second {
		t.Fatalf("default WindowSpan = %v, want 60s", got)
	}
	r.SetWindow(8 * time.Second)
	if got := r.WindowSpan(); got != 8*time.Second {
		t.Fatalf("WindowSpan = %v, want 8s", got)
	}
	r.SetWindow(0)
	if got := r.WindowSpan(); got != 60*time.Second {
		t.Fatalf("reset WindowSpan = %v, want 60s", got)
	}
	// No bins installed: LengthDistAt is nil, latency still windowed.
	r.RecordSpan(&Span{Length: 10, Total: time.Millisecond})
	if dist := r.LengthDistAt(time.Now()); dist != nil {
		t.Fatalf("LengthDistAt without bins = %v, want nil", dist)
	}
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
