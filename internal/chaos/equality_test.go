//go:build goexperiment.synctest

package chaos

import (
	"fmt"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/controller"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/sim"
)

// equalityRow is one configuration that the simulator and the live
// cluster run on the same trace.
type equalityRow struct {
	name     string
	lengths  []int
	slo      time.Duration
	alloc    []int
	rate     float64
	dur      time.Duration
	maxBatch int
	failAt   time.Duration // a permanent crash of runtime 1 when > 0
}

// TestSimLiveEquality holds the simulator to the live cluster exactly. On
// the bubble's virtual clock, with no modeled overhead, a greedy batch
// former and TimeScale 1, both run the same trace through the same
// Request Scheduler, so every request must get the same dispatch.Decision
// (ideal level, level, instance, levels peeked, fallback) and the
// simulator's latency must equal the live span's Total to the nanosecond.
func TestSimLiveEquality(t *testing.T) {
	bert := model.BertBase().Arch()
	all := bert.RuntimeLengths()
	even, err := allocator.EvenAllocation(90, len(all))
	if err != nil {
		t.Fatal(err)
	}
	rows := []equalityRow{
		{name: "3 runtimes x 1", lengths: []int{128, 256, 512}, alloc: []int{1, 1, 1}, rate: 140, dur: 200 * time.Millisecond},
		{name: "3 runtimes x 1, runtime 1 crashes", lengths: []int{128, 256, 512}, alloc: []int{1, 1, 1}, rate: 140, dur: 200 * time.Millisecond, failAt: 60 * time.Millisecond},
		{name: "3 runtimes x 1 at 900 req/s", lengths: []int{128, 256, 512}, alloc: []int{1, 1, 1}, rate: 900, dur: time.Second},
		{name: "{512} x 2, MaxBatch 4", lengths: []int{512}, alloc: []int{2}, rate: 250, dur: 2 * time.Second, maxBatch: 4},
		{name: "{128,512} x 2, MaxBatch 8, 600 req/s", lengths: []int{128, 512}, alloc: []int{2, 2}, rate: 600, dur: time.Second, maxBatch: 8},
		{name: "{128,512} x 2, MaxBatch 8, 3000 req/s", lengths: []int{128, 512}, alloc: []int{2, 2}, rate: 3000, dur: time.Second, maxBatch: 8},
		{name: "{128,512} x 2, MaxBatch 8, SLO 15 ms", lengths: []int{128, 512}, slo: 15 * time.Millisecond, alloc: []int{2, 2}, rate: 1500, dur: time.Second, maxBatch: 8},
		{name: "90 instances on 8 runtimes, 9k req/s", lengths: all, alloc: even, rate: 9000, dur: 100 * time.Millisecond},
		{name: "90 instances on 8 runtimes, 40k req/s", lengths: all, alloc: even, rate: 40000, dur: 100 * time.Millisecond},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			decisions, latencies := simLiveDifferences(t, row)
			if decisions != 0 || latencies != 0 {
				t.Errorf("%d decision and %d latency differences", decisions, latencies)
			}
		})
	}
}

// simLiveDifferences runs one row through sim.Run and chaos.Run and counts
// the requests whose decision or latency differ, logging the first few.
func simLiveDifferences(t *testing.T, row equalityRow) (decisions, latencies int) {
	t.Helper()
	slo := row.slo
	if slo == 0 {
		slo = 150 * time.Millisecond
	}
	p, err := profiler.StaticProfile(model.BertBase(), row.lengths, slo)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 7, row.rate, row.dur)
	simCfg := sim.Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: row.alloc,
		Dispatcher:        dispatch.Policy("RS"),
		Overhead:          -1,
		MaxBatch:          row.maxBatch,
	}
	liveCfg := Config{
		Profile:    p,
		Allocation: row.alloc,
		Trace:      tr,
		TimeScale:  1,
		MaxBatch:   row.maxBatch,
		BatchDelay: -1,
	}
	if row.failAt > 0 {
		simCfg.Failures = []sim.Failure{{At: row.failAt, Runtime: 1}}
		liveCfg.Events = []Event{{At: row.failAt, Kind: Fail, Runtime: 1}}
	}
	simRes, err := sim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(liveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if len(simRes.Requests) != len(rep.Samples) || len(rep.Samples) == 0 {
		t.Fatalf("simulator has %d records, live cluster %d samples", len(simRes.Requests), len(rep.Samples))
	}
	for i, r := range simRes.Requests {
		s := rep.Samples[i]
		if s.Err != nil {
			t.Fatalf("request %d: live error %v", i, s.Err)
		}
		if r.Decision != s.Span.Decision {
			if decisions++; decisions <= 3 {
				t.Logf("request %d: simulator decision %+v, live %+v", i, r.Decision, s.Span.Decision)
			}
		}
		if r.Latency != s.Span.Total {
			if latencies++; latencies <= 3 {
				t.Logf("request %d: simulator latency %v, live %v", i, r.Latency, s.Span.Total)
			}
		}
	}
	t.Logf("%d requests, %d demoted", len(rep.Samples), demoted(rep))
	return decisions, latencies
}

func demoted(rep *Report) int {
	n := 0
	for _, s := range rep.Samples {
		if s.Span.DemotionHops() > 0 {
			n++
		}
	}
	return n
}

// TestBubbledRunReplays runs one seed twice in the bubble, with crashes,
// slowdowns, cancellations, batching and a replanning controller, through
// both entry points (odd seeds submit through the ingress ring). Absolute
// timestamps differ between the two runs, which share one virtual clock,
// but every request's decision, modeled latency and outcome must repeat.
func TestBubbledRunReplays(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			run := func() *Report {
				rep, err := Run(Config{
					Profile:        testProfile(t),
					Allocation:     []int{1, 2},
					Trace:          testTrace(t, seed, 300, 400*time.Millisecond),
					TimeScale:      1,
					Seed:           seed,
					CancelFraction: 0.2,
					MaxBatch:       4,
					Controller:     &controller.Options{},
					Events: []Event{
						{At: 40 * time.Millisecond, Kind: Slow, Runtime: 1, Factor: 3},
						{At: 100 * time.Millisecond, Kind: Fail, Runtime: 1, Downtime: 60 * time.Millisecond},
						{At: 250 * time.Millisecond, Kind: Fail, Runtime: -1},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Check(); err != nil {
					t.Fatal(err)
				}
				return rep
			}
			a, b := run(), run()
			if a.Replans == 0 {
				t.Error("the controller never replanned")
			}
			for i := range a.Samples {
				x, y := a.Samples[i], b.Samples[i]
				if x.Span.Decision != y.Span.Decision || x.Span.Total != y.Span.Total || fmt.Sprint(x.Err) != fmt.Sprint(y.Err) {
					t.Fatalf("request %d: first run (%+v, %v, %v), second (%+v, %v, %v)",
						i, x.Span.Decision, x.Span.Total, x.Err, y.Span.Decision, y.Span.Total, y.Err)
				}
			}
		})
	}
}
