package sim

import (
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/trace"
)

func steadyTrace(rate int, d time.Duration, length int) *trace.Trace {
	gap := time.Second / time.Duration(rate)
	var reqs []trace.Request
	id := int64(0)
	for at := time.Duration(0); at < d; at += gap {
		reqs = append(reqs, trace.Request{ID: id, At: at, Length: length})
		id++
	}
	return &trace.Trace{Requests: reqs, Duration: d}
}

func TestFailureValidation(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	tr := steadyTrace(100, time.Second, 30)
	base := Config{Profile: p, Trace: tr, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory}
	cases := []Failure{
		{At: -time.Second, Runtime: 0},
		{At: 0, Runtime: 5},
		{At: 0, Runtime: -2},
		{At: 0, Runtime: 0, Downtime: -time.Second},
	}
	for i, f := range cases {
		cfg := base
		cfg.Failures = []Failure{f}
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid failure accepted", i)
		}
	}
}

func TestFailureLosesNoRequests(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	tr := steadyTrace(200, 4*time.Second, 30)
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{2, 1},
		Dispatcher:        rsFactory,
		Failures: []Failure{
			{At: time.Second, Runtime: 0, Downtime: 500 * time.Millisecond},
			{At: 2 * time.Second, Runtime: -1, Downtime: time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Errorf("failures applied = %d, want 2", res.Failures)
	}
	if res.Completed+res.Rejected != len(tr.Requests) {
		t.Errorf("conservation violated: %d + %d != %d", res.Completed, res.Rejected, len(tr.Requests))
	}
	if res.Rejected != 0 {
		t.Errorf("crashes must not lose requests, rejected %d", res.Rejected)
	}
}

func TestFailureWithoutRecoveryShrinksCluster(t *testing.T) {
	p := bertProfile(t, []int{512})
	tr := steadyTrace(100, 2*time.Second, 30)
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{3},
		Dispatcher:        rsFactory,
		Failures:          []Failure{{At: time.Second, Runtime: 0}}, // permanent
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.GPUs.Last(); got != 2 {
		t.Errorf("GPU count after permanent failure = %v, want 2", got)
	}
	if res.Completed != len(tr.Requests) {
		t.Errorf("completed %d, want %d", res.Completed, len(tr.Requests))
	}
}

func TestFailureRecoveryRestoresCluster(t *testing.T) {
	p := bertProfile(t, []int{512})
	tr := steadyTrace(100, 3*time.Second, 30)
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{3},
		Dispatcher:        rsFactory,
		Failures:          []Failure{{At: time.Second, Runtime: 0, Downtime: 500 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.GPUs.Last(); got != 3 {
		t.Errorf("GPU count after recovery = %v, want 3", got)
	}
	// The dip must be visible in the time-weighted count.
	if got := res.TimeWeightedGPUs; got <= 2 || got >= 3 {
		t.Errorf("time-weighted GPU count = %v, want the outage dip below 3", got)
	}
}

func TestFailureOnEmptyRuntimeIsNoop(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	tr := steadyTrace(50, time.Second, 30)
	res, err := Run(Config{
		Profile:           p,
		Trace:             tr,
		InitialAllocation: []int{0, 1},
		Dispatcher:        rsFactory,
		Failures:          []Failure{{At: 100 * time.Millisecond, Runtime: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Errorf("failure on empty runtime applied %d times, want 0", res.Failures)
	}
	if res.Completed != len(tr.Requests) {
		t.Error("workload should be unaffected")
	}
}

// TestDemotionAbsorbsFailureBetterThanILB injects a failure into the
// short runtime under sustained load: the Request Scheduler can demote
// the stranded short requests to the larger runtime, ILB cannot.
func TestDemotionAbsorbsFailureBetterThanILB(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	// 1400 req/s of short requests: one 64-instance handles ~870/s, so
	// after its crash ILB has nowhere to go (the remaining 64-instance is
	// the only ideal choice) while RS can use the two 512 instances.
	tr := steadyTrace(1400, 4*time.Second, 30)
	run := func(policy string) *Result {
		t.Helper()
		res, err := Run(Config{
			Profile:           p,
			Trace:             tr,
			InitialAllocation: []int{2, 2},
			Dispatcher:        dispatch.Policy(policy),
			Overhead:          -1,
			Failures:          []Failure{{At: time.Second, Runtime: 0, Downtime: 2 * time.Second}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs := run("RS")
	ilb := run("ILB")
	if rs.Summary.P98 >= ilb.Summary.P98 {
		t.Errorf("RS p98 %v should beat ILB p98 %v under instance failure", rs.Summary.P98, ilb.Summary.P98)
	}
}
