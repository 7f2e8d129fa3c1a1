//go:build goexperiment.synctest

package chaos

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/controller"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/sim"
	"arlo/internal/trace"
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

// TestSimLiveControllerRow holds the simulator's period tick to the live
// controller. Both count a period's arrivals per runtime bin, divide them
// over one period into demand per SLO window and take the same
// allocator.Replan step with no hold and no budget, so on a drifting trace
// they must leave the same allocation after every tick. Every request that
// arrives before the first replacement must also get the same decision;
// after it the two differ by design (the simulator keeps a replaced GPU
// offline for a second, cluster.Replace swaps at once).
func TestSimLiveControllerRow(t *testing.T) {
	const period = 200 * time.Millisecond
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 256, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	// The median length swings between ~60 and ~300 tokens over the
	// trace, so the demand moves across all three bins.
	tr, err := trace.Generate(trace.Config{
		Seed: 11, Duration: 2 * time.Second, Arrivals: trace.Poisson{Rate: 600},
		Lengths: trace.DriftingLengths{Mu: math.Log(140), SigmaWindow: 0.3, DriftAmp: 0.8, DriftPeriod: 2 * time.Second, Min: 1, Max: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc := []int{2, 2, 2}
	simRes, err := sim.Run(sim.Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: alloc,
		Dispatcher:        dispatch.Policy("RS"),
		Overhead:          -1,
		Allocate:          solver.Allocate,
		AllocPeriod:       period,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Profile:          p,
		Allocation:       alloc,
		Trace:            tr,
		TimeScale:        1,
		BatchDelay:       -1,
		Controller:       &controller.Options{Hysteresis: -1, MaxReplacements: -1},
		ControllerPeriod: period,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if want := int(tr.Duration / period); len(rep.Allocations) != want {
		t.Fatalf("%d controller ticks, want %d", len(rep.Allocations), want)
	}
	plans, firstReplacement := 0, time.Duration(math.MaxInt64)
	prev := alloc
	for k, live := range rep.Allocations {
		at := time.Duration(k+1) * period
		// The simulator books an allocation at every tick that replans.
		var simN []int
		for _, pt := range simRes.Allocations {
			if pt.At <= at {
				simN = pt.N
			}
		}
		if !slices.Equal(simN, live) {
			t.Errorf("tick %d at %v: simulator allocation %v, live %v", k+1, at, simN, live)
		}
		if !slices.Equal(simN, prev) {
			plans++
			firstReplacement = min(firstReplacement, at)
		}
		prev = simN
	}
	if plans < 2 {
		t.Fatalf("%d non-empty plans over %d ticks, want at least 2 on a drifting trace", plans, len(rep.Allocations))
	}
	compared, decisions := 0, 0
	for i, r := range simRes.Requests {
		if r.At >= firstReplacement {
			break
		}
		compared++
		if s := rep.Samples[i]; r.Decision != s.Span.Decision {
			if decisions++; decisions <= 3 {
				t.Logf("request %d: simulator decision %+v, live %+v", i, r.Decision, s.Span.Decision)
			}
		}
	}
	if compared == 0 || decisions != 0 {
		t.Errorf("%d decision differences in the %d requests before the first replacement", decisions, compared)
	}
	t.Logf("%d ticks, %d plans, first replacement at %v, %d requests compared, final %v",
		len(rep.Allocations), plans, firstReplacement, compared, rep.FinalAllocation)
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
