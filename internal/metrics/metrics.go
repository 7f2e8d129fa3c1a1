// Package metrics provides the measurement primitives used across the
// evaluation: a nearest-rank quantile and a run Summary (mean, p50, p98,
// max, SLO violations) over a caller's slice of exact latencies, and
// time-weighted series (e.g. the time-weighted GPU count of Fig. 8). The
// paper's primary metrics are mean latency and 98th-percentile tail
// latency (section 5, Metrics).
//
// The callers own their samples: the simulator's per-request records
// (sim.Result.Requests), a chaos run's samples, a load generator's
// replies. A live server keeps none: its one record of served requests is
// obs.Recorder's bucketed sliding window.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

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

// Quantile returns the p-quantile (0 <= p <= 1) of sorted latencies by
// nearest rank, the sample at index ceil(p*n)-1, or 0 with no samples.
func Quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Summarize sorts lats in place and computes their Summary against the
// given SLO (0 disables SLO accounting).
func Summarize(lats []time.Duration, slo time.Duration) Summary {
	slices.Sort(lats)
	s := Summary{
		Count: len(lats),
		P50:   Quantile(lats, 0.50),
		P98:   Quantile(lats, 0.98),
		Max:   Quantile(lats, 1),
		SLO:   slo,
	}
	if len(lats) == 0 {
		return s
	}
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	s.Mean = sum / time.Duration(len(lats))
	if slo > 0 {
		// First index strictly above the SLO.
		i := sort.Search(len(lats), func(i int) bool { return lats[i] > slo })
		s.SLOViolations = len(lats) - i
		s.SLOFraction = float64(s.SLOViolations) / float64(len(lats))
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
