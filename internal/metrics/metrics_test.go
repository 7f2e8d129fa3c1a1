package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	if r.Count() != 0 || r.Mean() != 0 || r.P98() != 0 || r.Max() != 0 || r.Percentile(0) != 0 {
		t.Error("empty recorder should report zeros")
	}
	if c, f := r.SLOViolations(time.Second); c != 0 || f != 0 {
		t.Error("empty recorder should report no violations")
	}
}

func TestRecorderBasicStats(t *testing.T) {
	r := NewRecorder(4)
	for _, ms := range []int{40, 10, 30, 20} {
		r.Record(time.Duration(ms) * time.Millisecond)
	}
	if got := r.Mean(); got != 25*time.Millisecond {
		t.Errorf("mean = %v, want 25ms", got)
	}
	if got := r.Max(); got != 40*time.Millisecond {
		t.Errorf("max = %v, want 40ms", got)
	}
	if got := r.Percentile(0.5); got != 20*time.Millisecond {
		t.Errorf("p50 = %v, want 20ms (nearest rank)", got)
	}
	if got := r.Percentile(0); got != 10*time.Millisecond {
		t.Errorf("p0 = %v, want min", got)
	}
	if got := r.Percentile(1); got != 40*time.Millisecond {
		t.Errorf("p100 = %v, want max", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	r := NewRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if got := r.P98(); got != 98*time.Millisecond {
		t.Errorf("p98 of 1..100ms = %v, want 98ms", got)
	}
	if got := r.Percentile(0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
}

func TestSLOViolations(t *testing.T) {
	r := NewRecorder(10)
	for i := 1; i <= 10; i++ {
		r.Record(time.Duration(i*10) * time.Millisecond)
	}
	c, f := r.SLOViolations(70 * time.Millisecond)
	if c != 3 {
		t.Errorf("violations = %d, want 3 (80,90,100ms)", c)
	}
	if f != 0.3 {
		t.Errorf("fraction = %v, want 0.3", f)
	}
	// Boundary: exactly-at-SLO is not a violation.
	c, _ = r.SLOViolations(100 * time.Millisecond)
	if c != 0 {
		t.Errorf("at-SLO sample counted as violation: %d", c)
	}
}

func TestRecordInterleavedWithReads(t *testing.T) {
	var r Recorder
	r.Record(10 * time.Millisecond)
	_ = r.Max() // forces a sort
	r.Record(5 * time.Millisecond)
	if got := r.Percentile(0); got != 5*time.Millisecond {
		t.Errorf("min after interleaved record = %v, want 5ms", got)
	}
}

func TestRecorderQuickMeanBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var r Recorder
		for _, v := range raw {
			r.Record(time.Duration(v % 1e9))
		}
		m := r.Mean()
		return m >= r.Percentile(0) && m <= r.Max() && r.P98() <= r.Max() && r.P98() >= r.Percentile(0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var r Recorder
	for i := 1; i <= 50; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	s := r.Summarize(40 * time.Millisecond)
	if s.Count != 50 || s.SLOViolations != 10 {
		t.Errorf("summary = %+v, want count 50, 10 violations", s)
	}
	if s.String() == "" {
		t.Error("summary string should be non-empty")
	}
	noSLO := r.Summarize(0)
	if noSLO.SLOViolations != 0 || noSLO.SLOFraction != 0 {
		t.Error("slo=0 should disable violation accounting")
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	if w.Average(time.Minute) != 0 {
		t.Error("empty series average should be 0")
	}
	w.Set(0, 5)              // 5 GPUs for 10s
	w.Set(10*time.Second, 8) // 8 GPUs for 20s
	w.Set(30*time.Second, 6) // 6 GPUs for 10s
	got := w.Average(40 * time.Second)
	want := (5.0*10 + 8.0*20 + 6.0*10) / 40
	if got != want {
		t.Errorf("time-weighted avg = %v, want %v", got, want)
	}
	if w.Last() != 6 {
		t.Errorf("last = %v, want 6", w.Last())
	}
}

func TestTimeWeightedClampsOutOfOrder(t *testing.T) {
	var w TimeWeighted
	w.Set(10*time.Second, 2)
	w.Set(5*time.Second, 4) // out of order: treated as at 10s
	if got := w.Average(20 * time.Second); got != 4 {
		t.Errorf("avg = %v, want 4 (value 2 held for zero time)", got)
	}
}

func TestTimeWeightedAverageBeforeEnd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 7)
	if got := w.Average(0); got != 7 {
		t.Errorf("zero-span average = %v, want the value itself", got)
	}
}
