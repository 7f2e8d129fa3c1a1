package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

// ms builds a latency slice from whole milliseconds.
func ms(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

// upTo returns 1..n ms in order.
func upTo(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestSummarizeEmpty(t *testing.T) {
	if Quantile(nil, 0) != 0 || Quantile(nil, 0.98) != 0 || Quantile(nil, 1) != 0 {
		t.Error("quantile of no samples should be 0")
	}
	s := Summarize(nil, time.Second)
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P98 != 0 || s.Max != 0 {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
	if s.SLOViolations != 0 || s.SLOFraction != 0 {
		t.Error("empty summary should report no violations")
	}
}

func TestSummarizeBasicStats(t *testing.T) {
	lats := ms(40, 10, 30, 20)
	s := Summarize(lats, 0)
	if s.Mean != 25*time.Millisecond {
		t.Errorf("mean = %v, want 25ms", s.Mean)
	}
	if s.Max != 40*time.Millisecond {
		t.Errorf("max = %v, want 40ms", s.Max)
	}
	if s.P50 != 20*time.Millisecond {
		t.Errorf("p50 = %v, want 20ms (nearest rank)", s.P50)
	}
	// Summarize leaves lats sorted for further quantile reads.
	if got := Quantile(lats, 0); got != 10*time.Millisecond {
		t.Errorf("p0 = %v, want min", got)
	}
	if got := Quantile(lats, 1); got != 40*time.Millisecond {
		t.Errorf("p100 = %v, want max", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lats := upTo(100)
	if got := Quantile(lats, 0.98); got != 98*time.Millisecond {
		t.Errorf("p98 of 1..100ms = %v, want 98ms", got)
	}
	if got := Quantile(lats, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	// ceil(0.98*26)-1 = 25: the top sample, where rounding half would
	// read index 24.
	if got := Quantile(upTo(26), 0.98); got != 26*time.Millisecond {
		t.Errorf("p98 of 1..26ms = %v, want 26ms", got)
	}
}

func TestSLOViolations(t *testing.T) {
	lats := ms(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	s := Summarize(lats, 70*time.Millisecond)
	if s.SLOViolations != 3 {
		t.Errorf("violations = %d, want 3 (80,90,100ms)", s.SLOViolations)
	}
	if s.SLOFraction != 0.3 {
		t.Errorf("fraction = %v, want 0.3", s.SLOFraction)
	}
	// Boundary: exactly-at-SLO is not a violation.
	if s := Summarize(lats, 100*time.Millisecond); s.SLOViolations != 0 {
		t.Errorf("at-SLO sample counted as violation: %d", s.SLOViolations)
	}
}

func TestSummarizeQuickMeanBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		lats := make([]time.Duration, len(raw))
		for i, v := range raw {
			lats[i] = time.Duration(v % 1e9)
		}
		s := Summarize(lats, 0)
		return s.Mean >= Quantile(lats, 0) && s.Mean <= s.Max && s.P98 <= s.Max && s.P98 >= s.P50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(upTo(50), 40*time.Millisecond)
	if s.Count != 50 || s.SLOViolations != 10 {
		t.Errorf("summary = %+v, want count 50, 10 violations", s)
	}
	if s.String() == "" {
		t.Error("summary string should be non-empty")
	}
	noSLO := Summarize(upTo(50), 0)
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
