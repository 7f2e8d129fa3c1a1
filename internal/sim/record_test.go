package sim

import (
	"slices"
	"sort"
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/trace"
)

// completedLatencies returns the sorted latencies of the completed
// records.
func completedLatencies(res *Result) []time.Duration {
	var lats []time.Duration
	for _, r := range res.Requests {
		if r.Instance >= 0 {
			lats = append(lats, r.Latency)
		}
	}
	slices.Sort(lats)
	return lats
}

// checkRecords holds res.Requests to the trace and to res's counters: one
// record per trace request with its arrival and length, the ideal level
// the length selects, no completed request below it, and the completed
// records' latencies summing to Summary.Mean times Completed.
func checkRecords(t *testing.T, tr *trace.Trace, maxLengths []int, res *Result) {
	t.Helper()
	if len(res.Requests) != len(tr.Requests) {
		t.Fatalf("%d records for %d trace requests", len(res.Requests), len(tr.Requests))
	}
	completed := 0
	var sum time.Duration
	for i, r := range res.Requests {
		want := tr.Requests[i]
		if r.At != want.At || r.Length != want.Length {
			t.Fatalf("record %d = (at %v, length %d), trace has (at %v, length %d)",
				i, r.At, r.Length, want.At, want.Length)
		}
		if r.Instance < 0 {
			continue
		}
		completed++
		sum += r.Latency
		if r.Latency <= 0 {
			t.Errorf("record %d completed with latency %v", i, r.Latency)
		}
		if ideal := sort.SearchInts(maxLengths, r.Length); r.IdealLevel != ideal {
			t.Errorf("record %d (length %d): ideal level %d, want %d", i, r.Length, r.IdealLevel, ideal)
		}
		if r.Level < r.IdealLevel {
			t.Errorf("record %d ran at level %d below its ideal level %d", i, r.Level, r.IdealLevel)
		}
	}
	if completed != res.Completed {
		t.Fatalf("%d records completed, Completed = %d", completed, res.Completed)
	}
	if completed > 0 && sum/time.Duration(completed) != res.Summary.Mean {
		t.Errorf("records' mean %v, Summary.Mean %v", sum/time.Duration(completed), res.Summary.Mean)
	}
}

func TestRecordsFollowTrace(t *testing.T) {
	p := bertProfile(t, model.BertBaseArch.RuntimeLengths())
	tr, err := trace.Generate(trace.Bursty(13, 800, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{2, 1, 1, 1, 1, 1, 1, 2},
		Dispatcher: rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, tr, p.MaxLengths(), res)

	// The Fig. 10 CDF rows read the same records Summary does.
	lats := completedLatencies(res)
	if len(lats) != res.Summary.Count {
		t.Fatalf("%d completed latencies, Summary.Count %d", len(lats), res.Summary.Count)
	}
	var prev time.Duration
	for _, q := range []float64{0.25, 0.50, 0.75, 0.90, 0.98} {
		v := metrics.Quantile(lats, q)
		if v < prev {
			t.Errorf("p%v = %v below the previous quantile %v", 100*q, v, prev)
		}
		prev = v
	}
	if metrics.Quantile(lats, 0.50) != res.Summary.P50 || metrics.Quantile(lats, 0.98) != res.Summary.P98 ||
		metrics.Quantile(lats, 1) != res.Summary.Max {
		t.Errorf("quantiles of the records disagree with %v", res.Summary)
	}
}

// TestRecordsLateBindingFailure crashes the short runtime's one instance
// under late binding, so displaced and demoted requests pass through the
// central buffer and are placed again by drainBuffer: each completed
// record still names an instance of the level it records.
func TestRecordsLateBindingFailure(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	var reqs []trace.Request
	for at := time.Duration(0); at < 2*time.Second; at += 600 * time.Microsecond {
		length := 400
		if len(reqs)%3 == 0 {
			length = 40
		}
		reqs = append(reqs, trace.Request{ID: int64(len(reqs)), At: at, Length: length})
	}
	tr := manualTrace(2*time.Second, reqs...)
	alloc := []int{1, 3}
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: alloc,
		Dispatcher: rsFactory, LateBinding: true,
		Failures: []Failure{{At: 500 * time.Millisecond, Runtime: 0, Downtime: 300 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.BufferedPeak == 0 {
		t.Fatalf("failures %d, buffered peak %d: want a crash and a used buffer", res.Failures, res.BufferedPeak)
	}
	if res.Completed != len(tr.Requests) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Requests))
	}
	checkRecords(t, tr, p.MaxLengths(), res)
	// Initial instances take IDs in allocation order; the one instance the
	// crash brings back gets the next ID and keeps runtime 0.
	n := alloc[0] + alloc[1]
	levelOf := func(id int) int {
		if id < alloc[0] || id == n {
			return 0
		}
		return 1
	}
	demoted := 0
	for i, r := range res.Requests {
		if r.Instance > n {
			t.Fatalf("record %d: instance %d is neither an initial nor the recovered one", i, r.Instance)
		}
		if got := levelOf(r.Instance); got != r.Level {
			t.Errorf("record %d: level %d, but instance %d serves level %d", i, r.Level, r.Instance, got)
		}
		if r.Level > r.IdealLevel {
			demoted++
		}
	}
	if demoted == 0 {
		t.Error("no request was demoted while the short runtime was down")
	}
}

// TestRecordsStrandedByCrashStayUncommitted crashes the only instance for
// good while it holds work: the displaced requests wait for an instance
// that never comes, and their records must not name the dead one.
func TestRecordsStrandedByCrashStayUncommitted(t *testing.T) {
	p := bertProfile(t, []int{512})
	tr := steadyTrace(1000, 10*time.Millisecond, 100)
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{1}, Dispatcher: rsFactory,
		Failures: []Failure{{At: 500 * time.Microsecond, Runtime: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("completed %d, want none before the crash", res.Completed)
	}
	checkRecords(t, tr, p.MaxLengths(), res)
}

// TestRecordsCarryCongestedWalk bursts requests of one length onto one
// instance per level, all at time 0 so none completes while the burst
// dispatches. Algorithm 1 takes level 0 until it is congested, then
// demotes to level 1 at the second peek, then, with both levels congested,
// falls back to level 0. Each record carries the whole decision of its
// phase, Peeked and Fallback included, and the phases come in that order.
func TestRecordsCarryCongestedWalk(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	var reqs []trace.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), Length: 40})
	}
	tr := manualTrace(time.Second, reqs...)
	res, err := Run(Config{Profile: p, Trace: tr, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory})
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, tr, p.MaxLengths(), res)
	phases := []dispatch.Decision{
		{IdealLevel: 0, Level: 0, Instance: 0, Peeked: 1},
		{IdealLevel: 0, Level: 1, Instance: 1, Peeked: 2},
		{IdealLevel: 0, Level: 0, Instance: 0, Peeked: 2, Fallback: true},
	}
	seen := make([]int, len(phases))
	phase := 0
	for i, r := range res.Requests {
		for phase < len(phases) && r.Decision != phases[phase] {
			phase++
		}
		if phase == len(phases) {
			t.Fatalf("record %d: decision %+v is not the next phase's", i, r.Decision)
		}
		seen[phase]++
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("no record took phase %d's decision %+v (per phase: %v)", i, phases[i], seen)
		}
	}
}
