package sim

import (
	"math"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/dispatch"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/trace"
)

func rsFactory(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
	return dispatch.NewRequestScheduler(ml)
}

func bertProfile(t testing.TB, lengths []int) *profiler.Profile {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), lengths, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func manualTrace(d time.Duration, reqs ...trace.Request) *trace.Trace {
	return &trace.Trace{Requests: reqs, Duration: d}
}

func TestConfigValidation(t *testing.T) {
	p := bertProfile(t, []int{512})
	tr := manualTrace(time.Second, trace.Request{ID: 0, At: 0, Length: 10})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil profile", Config{Trace: tr, InitialAllocation: []int{1}, Dispatcher: rsFactory}},
		{"nil trace", Config{Profile: p, InitialAllocation: []int{1}, Dispatcher: rsFactory}},
		{"nil dispatcher", Config{Profile: p, Trace: tr, InitialAllocation: []int{1}}},
		{"alloc mismatch", Config{Profile: p, Trace: tr, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory}},
		{"negative alloc", Config{Profile: p, Trace: tr, InitialAllocation: []int{-1}, Dispatcher: rsFactory}},
		{"no instances", Config{Profile: p, Trace: tr, InitialAllocation: []int{0}, Dispatcher: rsFactory}},
		{"alloc without period", Config{Profile: p, Trace: tr, InitialAllocation: []int{1}, Dispatcher: rsFactory,
			Allocate: func(g int, q []float64) (*allocator.Allocation, error) {
				return &allocator.Allocation{N: []int{g}}, nil
			}}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSingleInstanceQueueingExact(t *testing.T) {
	// One static 512 runtime, two requests arriving together: the second
	// waits exactly one execution.
	p := bertProfile(t, []int{512})
	lat := p.Runtimes[0].Latency
	tr := manualTrace(time.Second,
		trace.Request{ID: 0, At: 0, Length: 100},
		trace.Request{ID: 1, At: 0, Length: 500},
	)
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1, // force zero for exact arithmetic
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Rejected != 0 {
		t.Fatalf("completed=%d rejected=%d, want 2/0", res.Completed, res.Rejected)
	}
	lats := completedLatencies(res)
	if got := metrics.Quantile(lats, 0); got != lat {
		t.Errorf("first latency = %v, want %v", got, lat)
	}
	if got := metrics.Quantile(lats, 1); got != 2*lat {
		t.Errorf("second latency = %v, want %v (one execution queued)", got, 2*lat)
	}
}

func TestOverheadAddedToEveryRequest(t *testing.T) {
	p := bertProfile(t, []int{512})
	lat := p.Runtimes[0].Latency
	tr := manualTrace(time.Second, trace.Request{ID: 0, At: 0, Length: 10})
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Quantile(completedLatencies(res), 0); got != lat+DefaultOverhead {
		t.Errorf("latency = %v, want %v + 0.8ms overhead", got, lat)
	}
}

func TestPolymorphingBeatsFullPadding(t *testing.T) {
	// Short requests on a 64-runtime are ~4.2x faster than on a 512
	// runtime; the simulator must surface that.
	p := bertProfile(t, []int{64, 512})
	reqs := make([]trace.Request, 100)
	for i := range reqs {
		reqs[i] = trace.Request{ID: int64(i), At: time.Duration(i) * 5 * time.Millisecond, Length: 20}
	}
	tr := manualTrace(time.Second, reqs...)
	short, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{1, 1},
		Dispatcher: rsFactory, Overhead: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{0, 2},
		Dispatcher: rsFactory, Overhead: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if short.Summary.Mean >= padded.Summary.Mean {
		t.Errorf("ideal runtime mean %v should beat padded mean %v", short.Summary.Mean, padded.Summary.Mean)
	}
}

func TestRejectsOverlongRequests(t *testing.T) {
	p := bertProfile(t, []int{64, 128})
	tr := manualTrace(time.Second,
		trace.Request{ID: 0, At: 0, Length: 500},
		trace.Request{ID: 1, At: 0, Length: 100},
	)
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Completed != 1 {
		t.Errorf("rejected=%d completed=%d, want 1/1", res.Rejected, res.Completed)
	}
}

func TestConservationUnderLoad(t *testing.T) {
	p := bertProfile(t, model.BertBaseArch.RuntimeLengths())
	tr, err := trace.Generate(trace.Stable(5, 800, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	alloc := []int{2, 2, 1, 1, 1, 1, 1, 1}
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: alloc, Dispatcher: rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != len(tr.Requests) {
		t.Errorf("completed %d + rejected %d != %d arrivals", res.Completed, res.Rejected, len(tr.Requests))
	}
	if res.Rejected != 0 {
		t.Errorf("512-capable cluster should reject nothing, rejected %d", res.Rejected)
	}
	if res.Summary.Mean <= 0 {
		t.Error("mean latency should be positive")
	}
	// Every latency at least one computation plus overhead.
	min := metrics.Quantile(completedLatencies(res), 0)
	if min < p.Runtimes[0].Latency {
		t.Errorf("min latency %v below one execution %v", min, p.Runtimes[0].Latency)
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := bertProfile(t, model.BertBaseArch.RuntimeLengths())
	tr, err := trace.Generate(trace.Bursty(11, 500, 15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Profile: p, Trace: tr,
		InitialAllocation: []int{2, 1, 1, 1, 1, 1, 1, 2},
		Dispatcher:        rsFactory,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Mean != b.Summary.Mean || a.Summary.P98 != b.Summary.P98 || a.Completed != b.Completed {
		t.Errorf("non-deterministic results: %v vs %v", a.Summary, b.Summary)
	}
}

func TestPeriodicReallocationFollowsDemandShift(t *testing.T) {
	// First half short requests, second half long: the Runtime Scheduler
	// must move instances from the small to the large runtime.
	p := bertProfile(t, []int{64, 512})
	var reqs []trace.Request
	id := int64(0)
	for at := time.Duration(0); at < 10*time.Second; at += 4 * time.Millisecond {
		reqs = append(reqs, trace.Request{ID: id, At: at, Length: 20})
		id++
	}
	for at := 10 * time.Second; at < 20*time.Second; at += 4 * time.Millisecond {
		reqs = append(reqs, trace.Request{ID: id, At: at, Length: 400})
		id++
	}
	tr := manualTrace(20*time.Second, reqs...)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr,
		InitialAllocation: []int{3, 1},
		Dispatcher:        rsFactory,
		Allocate:          solver.Allocate,
		AllocPeriod:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements == 0 {
		t.Error("demand shift should trigger instance replacements")
	}
	last := res.Allocations[len(res.Allocations)-1]
	if last.N[1] <= 1 {
		t.Errorf("final allocation %v should favor the 512 runtime", last.N)
	}
	if res.Completed+res.Rejected != len(reqs) {
		t.Errorf("conservation violated: %d + %d != %d", res.Completed, res.Rejected, len(reqs))
	}
	if res.Rejected != 0 {
		t.Errorf("no request should be lost across replacements, rejected %d", res.Rejected)
	}
}

func TestAutoScaleOutUnderOverload(t *testing.T) {
	p := bertProfile(t, []int{512})
	// One instance at ~4.86ms/request: 400 req/s is 2x oversubscribed.
	var reqs []trace.Request
	for i := 0; i < 8000; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), At: time.Duration(i) * 2500 * time.Microsecond, Length: 300})
	}
	tr := manualTrace(20*time.Second, reqs...)
	scaler, err := allocator.NewAutoScaler(p.SLO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Scaler:            scaler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOuts == 0 {
		t.Error("sustained overload should scale out")
	}
	if res.GPUs.Last() <= 1 {
		t.Errorf("GPU count should have grown, last = %v", res.GPUs.Last())
	}
	if res.TimeWeightedGPUs <= 1 {
		t.Errorf("time-weighted GPUs = %v, want > 1", res.TimeWeightedGPUs)
	}
}

func TestAutoScaleInWhenIdle(t *testing.T) {
	p := bertProfile(t, []int{512})
	// Trickle load on 4 instances: p98 stays far below 50% of the SLO.
	var reqs []trace.Request
	for i := 0; i < 140; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), At: time.Duration(i) * time.Second, Length: 100})
	}
	tr := manualTrace(140*time.Second, reqs...)
	scaler, err := allocator.NewAutoScaler(p.SLO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr,
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		Scaler:            scaler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleIns == 0 {
		t.Error("idle cluster should scale in")
	}
	if res.GPUs.Last() >= 4 {
		t.Errorf("GPU count should have shrunk, last = %v", res.GPUs.Last())
	}
}

func TestRequestsWaitAcrossFullReplacement(t *testing.T) {
	// A single instance is replaced; arrivals during the 1 s gap must
	// wait for the new instance, not be dropped.
	p := bertProfile(t, []int{64, 512})
	var reqs []trace.Request
	id := int64(0)
	for at := time.Duration(0); at < 8*time.Second; at += 100 * time.Millisecond {
		reqs = append(reqs, trace.Request{ID: id, At: at, Length: 30})
		id++
	}
	tr := manualTrace(8*time.Second, reqs...)
	flip := false
	res, err := Run(Config{
		Profile: p, Trace: tr,
		InitialAllocation: []int{1, 0},
		Dispatcher:        rsFactory,
		Allocate: func(g int, q []float64) (*allocator.Allocation, error) {
			// Alternate the single GPU between the two runtimes to force
			// a full-cluster replacement every period.
			flip = !flip
			if flip {
				return &allocator.Allocation{N: []int{0, 1}}, nil
			}
			return &allocator.Allocation{N: []int{1, 0}}, nil
		},
		AllocPeriod: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("requests dropped during replacement: %d", res.Rejected)
	}
	if res.Completed != len(reqs) {
		t.Errorf("completed %d, want %d", res.Completed, len(reqs))
	}
	if res.Replacements < 2 {
		t.Errorf("expected repeated replacements, got %d", res.Replacements)
	}
}

// TestSimulatorMatchesMD1Theory validates the simulator (and the
// profiler's L_i curve) against queueing theory: a single static runtime
// instance under Poisson arrivals is an M/D/1 queue, whose mean sojourn
// time is lat * (1 + rho/(2(1-rho))). The simulator's measured mean must
// match the closed form within a few percent at moderate utilization.
func TestSimulatorMatchesMD1Theory(t *testing.T) {
	p := bertProfile(t, []int{512})
	lat := p.Runtimes[0].Latency
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		rate := rho / lat.Seconds()
		tr, err := trace.Generate(trace.Config{
			Seed:     int64(100 * rho),
			Duration: 60 * time.Second,
			Arrivals: trace.Poisson{Rate: rate},
			Lengths:  trace.LogNormalLengths{Mu: 4, Sigma: 0.1, Min: 1, Max: 512},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Profile: p, Trace: tr, InitialAllocation: []int{1},
			Dispatcher: rsFactory, Overhead: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(float64(lat) * (1 + rho/(2*(1-rho))))
		got := res.Summary.Mean
		diff := math.Abs(float64(got-want)) / float64(want)
		if diff > 0.10 {
			t.Errorf("rho=%.1f: sim mean %v vs M/D/1 %v (%.1f%% off)", rho, got, want, 100*diff)
		}
	}
}
