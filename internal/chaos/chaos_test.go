package chaos

import (
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

func testProfile(t testing.TB) *profiler.Profile {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testTrace(t testing.TB, seed int64, rate float64, dur time.Duration) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Stable(seed, rate, dur))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// genTrace is a generative trace: Poisson arrivals at 120/s for 200 ms on
// the recalibrated length mix, output budgets geometric with mean 8 and
// capped at 32.
func genTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{Seed: seed, Duration: 200 * time.Millisecond,
		Arrivals: trace.Poisson{Rate: 120}, Lengths: trace.TwitterRecalibrated(seed),
		Outputs: trace.GeometricOutputs{Mean: 8, Max: 32}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestConservationManySeeds is the tentpole assertion: across hundreds of
// seeded runs mixing crashes (transient and permanent), slowdowns and
// client cancellations, every submitted request resolves exactly once —
// completed, cancelled, or typed error — and the observability books
// agree with the harness's own tally (which would expose a double
// delivery). Run with -race to also audit the synchronization.
func TestConservationManySeeds(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	p := testProfile(t)
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{
			Profile:        p,
			Allocation:     []int{1, 2},
			Trace:          testTrace(t, int64(seed), 150, 200*time.Millisecond),
			TimeScale:      0.02,
			Seed:           int64(seed),
			CancelFraction: 0.2,
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
	}
}

// TestConservationManySeedsGenerative re-runs the conservation sweep with
// the cluster in continuous (iteration-level) batching mode and every
// request carrying an output budget. The invariants tighten: beyond the
// outcome partition and balanced books, every completion must deliver its
// full token count — a crash mid-decode displaces the resident sequence,
// which restarts and finishes exactly once; partial generations never
// surface as completed. Run with -race to also audit the per-iteration
// admission synchronization.
func TestConservationManySeedsGenerative(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 40
	}
	p := testProfile(t)
	for seed := 0; seed < seeds; seed++ {
		tr := genTrace(t, int64(seed))
		cfg := Config{
			Profile:        p,
			Allocation:     []int{1, 2},
			Trace:          tr,
			TimeScale:      0.02,
			Seed:           int64(seed),
			CancelFraction: 0.2,
			MaxBatch:       4,
			Generative:     true,
			MaxNewTokens:   32,
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
	}
}

// TestScriptedPermanentFailure pins the deterministic end state of a
// permanent crash: the runtime's allocation shrinks by one, displaced
// work is visible on the requeue counters, and the books still balance.
func TestScriptedPermanentFailure(t *testing.T) {
	p := testProfile(t)
	rep, err := Run(Config{
		Profile:    p,
		Allocation: []int{1, 2},
		// Twitter lengths are mostly short, so the load piles onto the
		// single small-runtime instance; a cluster-wide crash therefore
		// hits it with a deep queue, and the displaced short requests can
		// only demote into the surviving larger runtimes — the failover
		// rule end to end.
		Trace:     testTrace(t, 7, 600, 100*time.Millisecond),
		TimeScale: 0.02,
		Events: []Event{
			// Slowing the small instance 50x first guarantees its queue is
			// deep when the crash lands, so displacement is deterministic.
			{At: 5 * time.Millisecond, Kind: Slow, Runtime: 0, Factor: 50},
			{At: 50 * time.Millisecond, Kind: Fail, Runtime: -1, Downtime: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if got := rep.FinalAllocation[0]; got != 0 {
		t.Errorf("runtime 0 allocation after permanent failure = %d, want 0", got)
	}
	if rep.RequeuesQueued+rep.RequeuesInflight == 0 {
		t.Error("no displaced work recorded for a crash under load")
	}
	if rep.FinalHealth.Dead != 1 {
		t.Errorf("final health = %+v, want exactly 1 dead", rep.FinalHealth)
	}
}

// TestRecoveryRestoresAllocation checks the transient-failure path: after
// the downtime elapses the crashed instance rejoins, so the run ends at
// the starting allocation with everything healthy.
func TestRecoveryRestoresAllocation(t *testing.T) {
	p := testProfile(t)
	rep, err := Run(Config{
		Profile:    p,
		Allocation: []int{1, 2},
		Trace:      testTrace(t, 11, 200, 300*time.Millisecond),
		TimeScale:  0.02,
		Events: []Event{
			{At: 40 * time.Millisecond, Kind: Fail, Runtime: 1, Downtime: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.FinalAllocation[1], 2; got != want {
		t.Errorf("runtime 1 allocation after recovery = %d, want %d", got, want)
	}
	if rep.FinalHealth.Dead != 0 || rep.FinalHealth.Healthy == 0 {
		t.Errorf("final health = %+v, want all healthy", rep.FinalHealth)
	}
}

// TestCrossCheckAgainstSimulator runs the same profile, allocation, load
// and failure schedule through the discrete-event simulator and the live
// harness. The two share the failover rule (internal/failover), so their
// steady-state routing must agree: both absorb the crash, serve every
// request, and end at the same GPU count.
func TestCrossCheckAgainstSimulator(t *testing.T) {
	p := testProfile(t)
	tr := testTrace(t, 3, 150, 300*time.Millisecond)
	failAt := 60 * time.Millisecond

	simRes, err := sim.Run(sim.Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{1, 2},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		Overhead: -1,
		Failures: []sim.Failure{{At: failAt, Runtime: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Config{
		Profile:    p,
		Allocation: []int{1, 2},
		Trace:      tr,
		TimeScale:  0.02,
		Events: []Event{
			{At: failAt, Kind: Fail, Runtime: 1, Downtime: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}

	if simRes.Failures != 1 {
		t.Fatalf("simulator applied %d failures, want 1", simRes.Failures)
	}
	// Routing parity: both sides serve the full trace despite the crash.
	if simRes.Completed != len(tr.Requests) {
		t.Errorf("simulator completed %d of %d", simRes.Completed, len(tr.Requests))
	}
	if rep.Completed != len(tr.Requests) {
		t.Errorf("live cluster completed %d of %d (unserviceable %d, other %d)",
			rep.Completed, len(tr.Requests), rep.Unserviceable, rep.OtherRejected)
	}
	// Topology parity: one permanent crash leaves both at the same GPU
	// count, on the same runtime.
	gpus := 0
	for _, n := range rep.FinalAllocation {
		gpus += n
	}
	if got := int(simRes.GPUs.Last()); got != gpus {
		t.Errorf("end GPU count: simulator %d, live cluster %d", got, gpus)
	}
	if rep.FinalAllocation[1] != 1 {
		t.Errorf("live runtime 1 allocation = %d, want 1", rep.FinalAllocation[1])
	}
	checkRequestParity(t, simRes, rep)
}

// checkRequestParity asserts the per-request fields that do not depend on
// timing: request i has the same length and ideal level on both sides.
func checkRequestParity(t *testing.T, simRes *sim.Result, rep *Report) {
	t.Helper()
	if len(simRes.Requests) != len(rep.Samples) {
		t.Fatalf("simulator has %d records, live cluster %d samples", len(simRes.Requests), len(rep.Samples))
	}
	for i, r := range simRes.Requests {
		span := rep.Samples[i].Span
		if r.Length != span.Length || r.IdealLevel != span.IdealLevel {
			t.Errorf("request %d: simulator (length %d, ideal level %d), live (length %d, ideal level %d)",
				i, r.Length, r.IdealLevel, span.Length, span.IdealLevel)
		}
	}
}

// TestSimLiveBatchParity replays one trace through the discrete-event
// simulator and the live cluster with the same profile, allocation and
// batch cap. Greedy live formation (BatchDelay < 0) matches the
// simulator's event-driven batching — an idle instance takes whatever is
// queued, up to the cap — so completion counts must agree exactly and the
// mean modeled latencies must land within a factor of two (the live side
// adds real goroutine scheduling under time compression).
func TestSimLiveBatchParity(t *testing.T) {
	p, err := profiler.StaticProfile(model.BertBase(), []int{512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 250 req/s against two instances (~410 req/s sequential capacity)
	// keeps both systems in the moderately-loaded regime where queueing is
	// real but bounded. TimeScale 0.2 keeps the worker's 200us spin guard
	// small relative to the compressed execution times, so the 1-CPU CI
	// container's spin serialization cannot inflate the live means.
	tr := testTrace(t, 7, 250, 2*time.Second)
	alloc := []int{2}

	simRes, err := sim.Run(sim.Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: alloc,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		Overhead: -1,
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Profile:    p,
		Allocation: alloc,
		Trace:      tr,
		TimeScale:  0.2,
		MaxBatch:   4,
		BatchDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}

	if simRes.Rejected != 0 {
		t.Fatalf("simulator rejected %d requests", simRes.Rejected)
	}
	if simRes.Completed != len(tr.Requests) || rep.Completed != len(tr.Requests) {
		t.Fatalf("completions diverge: sim %d, live %d, trace %d",
			simRes.Completed, rep.Completed, len(tr.Requests))
	}
	checkRequestParity(t, simRes, rep)
	var live time.Duration
	for i := range rep.Samples {
		live += rep.Samples[i].Span.Total
	}
	simMean := simRes.Summary.Mean
	liveMean := live / time.Duration(len(rep.Samples))
	ratio := float64(liveMean) / float64(simMean)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("mean latency parity broken: sim %v, live %v (ratio %.2f, want within [0.5, 2.0])",
			simMean, liveMean, ratio)
	}
}

// TestSamplesCarryTraceTags runs an event-free, registry-free arm on a
// tenant-tagged trace: every request yields one sample, in arrival order,
// carrying the trace's own tag and a completion span, and the run reports
// how long it took on the wall.
func TestSamplesCarryTraceTags(t *testing.T) {
	cfg := trace.Stable(17, 300, 200*time.Millisecond)
	cfg.Tenants = trace.WeightedTenants{IDs: []string{"a", "b"}}
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Profile: testProfile(t), Allocation: []int{1, 2}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != len(tr.Requests) {
		t.Fatalf("%d samples for %d requests", len(rep.Samples), len(tr.Requests))
	}
	if rep.PerTenant != nil {
		t.Error("per-tenant books kept without a registry")
	}
	for i, s := range rep.Samples {
		r := tr.Requests[i]
		if s.At != r.At || s.Tenant != r.Tenant || s.Tenant == "" {
			t.Fatalf("sample %d = {%v %q}, trace has {%v %q}", i, s.At, s.Tenant, r.At, r.Tenant)
		}
		if s.Err != nil || s.Span.Total <= 0 || s.Span.Length != r.Length {
			t.Fatalf("sample %d: err %v, span %+v; want a completion of length %d", i, s.Err, s.Span, r.Length)
		}
	}
	if rep.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want positive", rep.Elapsed)
	}
}

// TestRunToCompletionHonoursTraceBudgets pins that the trace's output
// budgets are submitted, and the full-token-count audit applied, outside
// continuous mode too: a batched run-to-completion arm on a generative
// trace completes every request with exactly the tokens it asked for.
func TestRunToCompletionHonoursTraceBudgets(t *testing.T) {
	tr := genTrace(t, 19)
	rep, err := Run(Config{Profile: testProfile(t), Allocation: []int{1, 2}, Trace: tr, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(tr.Requests) {
		t.Fatalf("completed %d of %d", rep.Completed, len(tr.Requests))
	}
	for i, s := range rep.Samples {
		if want := tr.Requests[i].OutTokens; want < 1 || s.Span.OutTokens != want {
			t.Fatalf("sample %d generated %d tokens, trace budget %d", i, s.Span.OutTokens, want)
		}
	}
}
