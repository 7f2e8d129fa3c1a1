// Package metrics provides the measurement primitives used across the
// evaluation: latency recorders with mean and percentile extraction, SLO
// accounting, and time-weighted series (e.g. the time-weighted GPU count of
// Fig. 8). The paper's primary metrics are mean latency and 98th-percentile
// tail latency (section 5, Metrics).
//
// Everything here keeps exact samples, which suits the simulator and the
// figure drivers, whose runs are finite. A live server keeps none: its one
// record of served requests is obs.Recorder's bucketed sliding window.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Recorder accumulates per-request latencies and derives summary statistics.
// The zero value is ready to use. Recorder is not safe for concurrent use;
// wrap it (e.g. with a mutex) when recording from multiple goroutines.
type Recorder struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// NewRecorder returns a Recorder with capacity pre-allocated for n samples.
func NewRecorder(n int) *Recorder {
	return &Recorder{samples: make([]time.Duration, 0, n)}
}

// Record adds one latency sample.
func (r *Recorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sum += d
	r.sorted = false
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the average latency, or 0 with no samples.
func (r *Recorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// Percentile returns the p-quantile (0 <= p <= 1) using nearest-rank on the
// sorted samples, or 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 1 {
		return r.samples[len(r.samples)-1]
	}
	idx := int(math.Ceil(p*float64(len(r.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return r.samples[idx]
}

// P98 returns the paper's tail-latency metric, the 98th percentile.
func (r *Recorder) P98() time.Duration { return r.Percentile(0.98) }

// Max returns the largest recorded latency, or 0 with no samples.
func (r *Recorder) Max() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[len(r.samples)-1]
}

// SLOViolations returns how many samples exceed the given objective and the
// violating fraction (0 with no samples).
func (r *Recorder) SLOViolations(slo time.Duration) (count int, fraction float64) {
	if len(r.samples) == 0 {
		return 0, 0
	}
	r.sort()
	// First index strictly above the SLO.
	i := sort.Search(len(r.samples), func(i int) bool { return r.samples[i] > slo })
	count = len(r.samples) - i
	return count, float64(count) / float64(len(r.samples))
}

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Summary bundles the headline statistics of a run.
type Summary struct {
	Count         int
	Mean          time.Duration
	P50           time.Duration
	P98           time.Duration
	Max           time.Duration
	SLO           time.Duration
	SLOViolations int
	SLOFraction   float64
}

// Summarize computes a Summary against the given SLO (0 disables SLO
// accounting).
func (r *Recorder) Summarize(slo time.Duration) Summary {
	s := Summary{
		Count: r.Count(),
		Mean:  r.Mean(),
		P50:   r.Percentile(0.50),
		P98:   r.P98(),
		Max:   r.Max(),
		SLO:   slo,
	}
	if slo > 0 {
		s.SLOViolations, s.SLOFraction = r.SLOViolations(slo)
	}
	return s
}

// String renders the summary on one line, in milliseconds.
func (s Summary) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p98=%.2fms max=%.2fms",
		s.Count, ms(s.Mean), ms(s.P50), ms(s.P98), ms(s.Max))
	if s.SLO > 0 {
		out += fmt.Sprintf(" sloViol=%d (%.2f%%)", s.SLOViolations, 100*s.SLOFraction)
	}
	return out
}
