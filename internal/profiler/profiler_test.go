package profiler

import (
	"testing"
	"time"

	"arlo/internal/model"
)

func bertBaseProfile(t *testing.T) *Profile {
	t.Helper()
	lm := model.BertBase()
	p, err := StaticProfile(lm, lm.Arch().RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStaticProfileBertBase(t *testing.T) {
	p := bertBaseProfile(t)
	if len(p.Runtimes) != 8 {
		t.Fatalf("runtimes = %d, want 8", len(p.Runtimes))
	}
	for i, r := range p.Runtimes {
		if r.Index != i {
			t.Errorf("runtime %d has index %d", i, r.Index)
		}
		if r.MaxLength != 64*(i+1) {
			t.Errorf("runtime %d max_length = %d, want %d", i, r.MaxLength, 64*(i+1))
		}
		if r.Compilation != model.Static {
			t.Errorf("runtime %d not static", i)
		}
		if i > 0 && r.Latency <= p.Runtimes[i-1].Latency {
			t.Errorf("latency must increase with max_length at %d", i)
		}
		if i > 0 && r.Capacity >= p.Runtimes[i-1].Capacity {
			t.Errorf("capacity must decrease with max_length at %d", i)
		}
		if r.DrainTime(r.Capacity) > p.SLO {
			t.Errorf("runtime %d: capacity %d does not fit the SLO", i, r.Capacity)
		}
		if r.DrainTime(r.Capacity+1) <= p.SLO {
			t.Errorf("runtime %d: capacity %d is not maximal", i, r.Capacity)
		}
	}
	// Shortest runtime should hold well over 100 requests within 150 ms
	// at ~1.15 ms each.
	if p.Runtimes[0].Capacity < 100 {
		t.Errorf("64-runtime capacity = %d, want > 100", p.Runtimes[0].Capacity)
	}
}

func TestStaticProfileValidation(t *testing.T) {
	lm := model.BertBase()
	slo := 150 * time.Millisecond
	if _, err := StaticProfile(nil, []int{64}, slo); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := StaticProfile(lm, []int{64}, 0); err == nil {
		t.Error("zero SLO should fail")
	}
	if _, err := StaticProfile(lm, nil, slo); err == nil {
		t.Error("no lengths should fail")
	}
	if _, err := StaticProfile(lm, []int{128, 64}, slo); err == nil {
		t.Error("unsorted lengths should fail")
	}
	if _, err := StaticProfile(lm, []int{64, 64}, slo); err == nil {
		t.Error("duplicate lengths should fail")
	}
	if _, err := StaticProfile(lm, []int{-64}, slo); err == nil {
		t.Error("negative length should fail")
	}
	if _, err := StaticProfile(lm, []int{512}, time.Millisecond); err == nil {
		t.Error("SLO below one execution should fail")
	}
}

func TestCostOfStaticIgnoresLength(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[3] // max_length 256
	if r.CostOf(1) != r.CostOf(256) {
		t.Error("static runtime cost must not depend on request length")
	}
	if r.CostOf(10) != r.Latency {
		t.Error("static cost should equal profiled latency")
	}
}

func TestDynamicProfile(t *testing.T) {
	lm := model.BertBase()
	lengths := []int{10, 20, 30, 100, 400}
	p, err := DynamicProfile(lm, lengths, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runtimes) != 1 {
		t.Fatalf("dynamic profile should have one runtime, got %d", len(p.Runtimes))
	}
	r := p.Runtimes[0]
	if r.Compilation != model.Dynamic {
		t.Error("runtime should be dynamic")
	}
	if r.MaxLength != 512 {
		t.Errorf("dynamic runtime max_length = %d, want 512", r.MaxLength)
	}
	// Dynamic cost depends on request length.
	if r.CostOf(10) >= r.CostOf(400) {
		t.Error("dynamic cost should grow with length")
	}
	// Mean latency should be bracketed by the extremes.
	if r.Latency < r.CostOf(10) || r.Latency > r.CostOf(400) {
		t.Errorf("profiled mean %v outside cost range [%v, %v]", r.Latency, r.CostOf(10), r.CostOf(400))
	}
}

func TestDynamicProfileValidation(t *testing.T) {
	lm := model.BertBase()
	if _, err := DynamicProfile(nil, []int{10}, time.Second); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := DynamicProfile(lm, nil, time.Second); err == nil {
		t.Error("no sample lengths should fail")
	}
	if _, err := DynamicProfile(lm, []int{0}, time.Second); err == nil {
		t.Error("zero sample length should fail")
	}
	if _, err := DynamicProfile(lm, []int{9999}, time.Second); err == nil {
		t.Error("over-long sample should fail")
	}
	if _, err := DynamicProfile(lm, []int{512}, 0); err == nil {
		t.Error("zero SLO should fail")
	}
	if _, err := DynamicProfile(lm, []int{512}, time.Millisecond); err == nil {
		t.Error("SLO below mean latency should fail")
	}
}

func TestIdealRuntime(t *testing.T) {
	p := bertBaseProfile(t)
	cases := []struct {
		length  int
		wantIdx int
		wantOK  bool
	}{
		{1, 0, true}, {64, 0, true}, {65, 1, true},
		{200, 3, true}, {512, 7, true}, {513, 0, false},
	}
	for _, tc := range cases {
		idx, ok := p.IdealRuntime(tc.length)
		if idx != tc.wantIdx || ok != tc.wantOK {
			t.Errorf("IdealRuntime(%d) = (%d, %v), want (%d, %v)", tc.length, idx, ok, tc.wantIdx, tc.wantOK)
		}
	}
}

func TestMeanLatency(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[0]
	if got := r.MeanLatency(0); got != 0 {
		t.Errorf("mean latency of empty workload = %v, want 0", got)
	}
	// A near-idle instance costs about one execution.
	light := r.MeanLatency(1)
	if light < r.Latency || light > r.Latency*11/10 {
		t.Errorf("mean latency at B=1 = %v, want ~%v", light, r.Latency)
	}
	// The curve is strictly increasing and convex in workload.
	cap := float64(r.Capacity)
	prev := time.Duration(0)
	prevDelta := time.Duration(0)
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		cur := r.MeanLatency(frac * cap)
		if cur <= prev {
			t.Fatalf("mean latency not increasing at rho=%.2f", frac)
		}
		if delta := cur - prev; prev != 0 && delta <= prevDelta {
			t.Fatalf("mean latency not convex at rho=%.2f", frac)
		} else if prev != 0 {
			prevDelta = delta
		}
		prev = cur
	}
	// Near saturation queueing dominates: >> one execution.
	if got := r.MeanLatency(0.95 * cap); got < 5*r.Latency {
		t.Errorf("mean latency at rho=0.95 = %v, want >> %v", got, r.Latency)
	}
	// Past saturation the curve keeps growing.
	if r.MeanLatency(1.5*cap) <= r.MeanLatency(1.0*cap) {
		t.Error("overloaded curve must keep growing")
	}
}

func TestAcceptsAndHelpers(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[1] // 128
	mls := p.MaxLengths()
	if len(mls) != 8 || mls[0] != 64 || mls[7] != 512 {
		t.Errorf("MaxLengths = %v", mls)
	}
	if r.DrainTime(-1) != 0 {
		t.Error("negative drain should be 0")
	}
}

func TestBatchCostOf(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[3] // max_length 256
	if got := r.BatchCostOf(nil); got != 0 {
		t.Errorf("empty batch cost = %v, want 0", got)
	}
	if got := r.BatchCostOf([]int{100}); got != r.CostOf(100) {
		t.Errorf("singleton batch cost = %v, want %v", got, r.CostOf(100))
	}
	// A static runtime's batch cost scales sub-linearly and is driven by
	// the compiled shape, not the batch's lengths.
	b4 := r.BatchCostOf([]int{10, 20, 30, 40})
	want := time.Duration(float64(r.Latency) * 2.5) // 1 + 0.5*3
	if diff := b4 - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("batch-4 cost = %v, want ~%v", b4, want)
	}
	if b4 >= 4*r.Latency {
		t.Error("batching must beat sequential execution")
	}
	// Dynamic runtimes run at the batch's longest sequence.
	lm := model.BertBase()
	dp, err := DynamicProfile(lm, []int{50, 200}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dr := dp.Runtimes[0]
	short := dr.BatchCostOf([]int{10, 10})
	long := dr.BatchCostOf([]int{10, 400})
	if long <= short {
		t.Error("dynamic batch cost must grow with the longest member")
	}
}

func TestDrainTimeMonotone(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[0]
	prev := time.Duration(0)
	for n := 0; n <= 10; n++ {
		d := r.DrainTime(n)
		if n > 0 && d <= prev {
			t.Fatalf("drain time not increasing at n=%d", n)
		}
		prev = d
	}
	if r.DrainTime(5) != 5*r.Latency {
		t.Errorf("drain(5) = %v, want %v", r.DrainTime(5), 5*r.Latency)
	}
}

func TestBatchDrainTime(t *testing.T) {
	p := bertBaseProfile(t)
	r := p.Runtimes[0]
	// maxBatch 1 is the sequential DrainTime.
	if got, want := r.BatchDrainTime(5, 1), r.DrainTime(5); got != want {
		t.Errorf("BatchDrainTime(5, 1) = %v, want DrainTime %v", got, want)
	}
	// 10 requests in batches of 4: two full kernels + one remainder of 2.
	lm := p.Model
	want := time.Duration(float64(r.Latency)*lm.BatchScale(4))*2 +
		time.Duration(float64(r.Latency)*lm.BatchScale(2))
	if got := r.BatchDrainTime(10, 4); got != want {
		t.Errorf("BatchDrainTime(10, 4) = %v, want %v", got, want)
	}
	// Batching must never drain slower than sequential execution.
	for _, n := range []int{1, 3, 7, 50, 200} {
		for _, b := range []int{2, 4, 8} {
			if batched, seq := r.BatchDrainTime(n, b), r.DrainTime(n); batched > seq {
				t.Errorf("BatchDrainTime(%d, %d) = %v slower than sequential %v", n, b, batched, seq)
			}
		}
	}
	if r.BatchDrainTime(0, 8) != 0 {
		t.Error("draining nothing must cost nothing")
	}
}

func TestBatchCapacityRaisesCongestionCeiling(t *testing.T) {
	p := bertBaseProfile(t)
	for i, r := range p.Runtimes {
		for _, b := range []int{2, 4, 8} {
			got := r.BatchCapacity(b)
			if got < r.Capacity {
				t.Errorf("runtime %d: BatchCapacity(%d) = %d below sequential %d", i, b, got, r.Capacity)
			}
			// Maximality against the SLO, like the sequential capacity.
			if r.BatchDrainTime(got, b) > p.SLO {
				t.Errorf("runtime %d: BatchCapacity(%d) = %d does not fit the SLO", i, b, got)
			}
			if r.BatchDrainTime(got+1, b) <= p.SLO {
				t.Errorf("runtime %d: BatchCapacity(%d) = %d is not maximal", i, b, got)
			}
		}
	}
	// With the default 0.5 marginal batch cost, batch-8 kernels serve
	// 8/4.5 = 1.78x the sequential rate; the capacity should reflect it.
	r := p.Runtimes[0]
	if got := r.BatchCapacity(8); float64(got) < 1.5*float64(r.Capacity) {
		t.Errorf("BatchCapacity(8) = %d, want >= 1.5x sequential %d", got, r.Capacity)
	}
	if r.BatchCapacity(1) != r.Capacity {
		t.Error("BatchCapacity(1) must be the sequential capacity")
	}
}

func TestBatchWithinSLO(t *testing.T) {
	p := bertBaseProfile(t)
	short, long := p.Runtimes[0], p.Runtimes[len(p.Runtimes)-1]
	// The profiled bound is monotone in the requested cap and respects
	// the SLO for every runtime.
	for _, r := range []Runtime{short, long} {
		prev := 0
		for cap := 1; cap <= 64; cap *= 2 {
			b := r.BatchWithinSLO(cap)
			if b < 1 || b > cap {
				t.Fatalf("BatchWithinSLO(%d) = %d out of range", cap, b)
			}
			if b < prev {
				t.Fatalf("BatchWithinSLO not monotone: %d then %d", prev, b)
			}
			if b > 1 && r.BatchDrainTime(b, b) > p.SLO {
				t.Fatalf("BatchWithinSLO(%d) = %d: one kernel exceeds the SLO", cap, b)
			}
			prev = b
		}
	}
	// A longer runtime has less SLO headroom per kernel, so its profiled
	// batch bound can never exceed the short runtime's.
	if ls, ll := short.BatchWithinSLO(64), long.BatchWithinSLO(64); ll > ls {
		t.Errorf("long-runtime bound %d exceeds short-runtime bound %d", ll, ls)
	}
	// Hand-built runtimes (no profile, no SLO) accept the cap unchanged.
	bare := Runtime{Latency: time.Millisecond, Capacity: 10}
	if got := bare.BatchWithinSLO(8); got != 8 {
		t.Errorf("unprofiled BatchWithinSLO(8) = %d, want 8", got)
	}
	if got := bare.BatchCapacity(8); got != 10 {
		t.Errorf("unprofiled BatchCapacity(8) = %d, want the sequential 10", got)
	}
}
