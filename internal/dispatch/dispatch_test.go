package dispatch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"arlo/internal/queue"
)

// fig5Queue reproduces the paper's Fig. 5 example: four runtimes with
// max_lengths 64/128/256/512; head-instance loads and capacities as drawn.
func fig5Queue(t *testing.T) *queue.MultiLevel {
	t.Helper()
	ml, err := queue.NewMultiLevel([]int{64, 128, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id, runtime, outstanding, capacity int) {
		t.Helper()
		if err := ml.Add(queue.NewInstance(id, runtime, outstanding, capacity)); err != nil {
			t.Fatal(err)
		}
	}
	// Level Q1 (64): irrelevant for the length-200 request.
	add(10, 0, 30, 120)
	// Level Q2 (128): nothing (request length 200 skips it anyway).
	add(20, 1, 40, 80)
	// Level Q3 (256): head instance 54/60 — congested (0.9 > 0.85).
	add(30, 2, 54, 60)
	add(31, 2, 58, 60)
	// Level Q4 (512): head instance 28/48 — 0.583 < 0.765.
	add(40, 3, 28, 48)
	add(41, 3, 40, 48)
	return ml
}

// byID finds a registered instance by its ID.
func byID(t *testing.T, ml *queue.MultiLevel, id int) *queue.Instance {
	t.Helper()
	for _, in := range ml.Instances() {
		if in.ID == id {
			return in
		}
	}
	t.Fatalf("no instance %d", id)
	return nil
}

func TestAlgorithm1PaperExample(t *testing.T) {
	// The paper's walk-through: a length-200 request with lambda 0.85,
	// alpha 0.9, L 3 skips the congested 256 runtime (54/60 >= 0.85) and
	// lands on the 512 head (28/48 < 0.765).
	ml := fig5Queue(t)
	rs, err := NewRequestSchedulerParams(ml, 0.85, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 40 {
		t.Errorf("dispatched to instance %d, want 40 (512 head)", in.ID)
	}
	if in.Outstanding() != 29 {
		t.Errorf("outstanding = %d, want 29 after dispatch", in.Outstanding())
	}
}

func TestAlgorithm1TakesIdealWhenUncongested(t *testing.T) {
	ml := fig5Queue(t)
	// Relieve the 256 head below the threshold.
	head := byID(t, ml, 30)
	head.SetOutstanding(10)
	ml.Level(2).Update(head)
	rs, err := NewRequestScheduler(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 30 {
		t.Errorf("dispatched to %d, want the ideal runtime head 30", in.ID)
	}
}

func TestAlgorithm1FallbackToTopCandidate(t *testing.T) {
	// Saturate every candidate: the request must fall back to the first
	// (least padding) candidate's head (Algorithm 1 lines 18-19).
	ml := fig5Queue(t)
	for _, id := range []int{30, 31, 40, 41} {
		in := byID(t, ml, id)
		in.SetOutstanding(in.MaxCapacity)
		ml.Level(in.Runtime).Update(in)
	}
	rs, err := NewRequestScheduler(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.Runtime != 2 {
		t.Errorf("fallback went to runtime %d, want 2 (least padding)", in.Runtime)
	}
}

func TestAlgorithm1MaxPeekLimit(t *testing.T) {
	// With L=1 and a congested ideal runtime, no demotion can happen: the
	// fallback picks the ideal runtime again.
	ml := fig5Queue(t)
	rs, err := NewRequestSchedulerParams(ml, 0.85, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.Runtime != 2 {
		t.Errorf("L=1 must stay on the ideal runtime, got runtime %d", in.Runtime)
	}
}

func TestAlgorithm1SkipsEmptyLevels(t *testing.T) {
	ml, err := queue.NewMultiLevel([]int{64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	// Only the 256 runtime has an instance.
	if err := ml.Add(queue.NewInstance(1, 2, 0, 10)); err != nil {
		t.Fatal(err)
	}
	rs, err := NewRequestScheduler(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 1 {
		t.Errorf("dispatch = %d, want the only instance", in.ID)
	}
}

func TestDispatchErrors(t *testing.T) {
	ml, err := queue.NewMultiLevel([]int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RS", "ILB", "IG", "INFaaS"} {
		d, err := New(name, ml)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.DispatchCtx(context.Background(), 129); err != ErrTooLong {
			t.Errorf("%s: over-long request error = %v, want ErrTooLong", name, err)
		}
		if _, _, err := d.DispatchCtx(context.Background(), 10); err != ErrNoInstances {
			t.Errorf("%s: empty cluster error = %v, want ErrNoInstances", name, err)
		}
	}
}

func TestILBNeverDemotes(t *testing.T) {
	ml := fig5Queue(t)
	// Even with the ideal runtime saturated, ILB keeps piling on it.
	for _, id := range []int{30, 31} {
		in := byID(t, ml, id)
		in.SetOutstanding(in.MaxCapacity)
		ml.Level(in.Runtime).Update(in)
	}
	d, err := NewILB(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.Runtime != 2 {
		t.Errorf("ILB dispatched to runtime %d, want ideal runtime 2", in.Runtime)
	}
}

func TestILBBalancesWithinGroup(t *testing.T) {
	ml := fig5Queue(t)
	d, err := NewILB(ml)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 30 {
		t.Fatalf("first dispatch to %d, want least-loaded 30", first.ID)
	}
	// Load instance 30 up to 59 (ties break toward the lower ID, so 30
	// absorbs the tie at 58): the next dispatch must go to 31.
	for i := 0; i < 4; i++ {
		if _, _, err := d.DispatchCtx(context.Background(), 200); err != nil {
			t.Fatal(err)
		}
	}
	in, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 31 {
		t.Errorf("ILB should rotate to instance 31, got %d", in.ID)
	}
}

func TestIGPicksGlobalLeastBusy(t *testing.T) {
	ml := fig5Queue(t)
	d, err := NewIG(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates' heads: 256 head has 54, 512 head has 28 — IG takes 28
	// even though 512 means more padding.
	if in.ID != 40 {
		t.Errorf("IG dispatched to %d, want 40 (globally least busy)", in.ID)
	}
	// A length-10 request sees the 64 head (30)... but the 512 head now
	// has 29: IG greedily seizes the larger runtime.
	in2, _, err := d.DispatchCtx(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if in2.ID != 40 {
		t.Errorf("IG dispatched to %d, want 40 (outstanding 29 < 30)", in2.ID)
	}
}

func TestBinPackingFillsOneBinBeforeSpilling(t *testing.T) {
	ml, err := queue.NewMultiLevel([]int{256, 512})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := ml.Add(&queue.Instance{ID: id, Runtime: id % 2, MaxCapacity: 60}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewBinPacking(ml)
	if err != nil {
		t.Fatal(err)
	}
	// First PackDepth dispatches all pack onto the same instance (the
	// fullest non-full bin), then spill to the next.
	first, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.PackDepth-1; i++ {
		in, _, err := d.DispatchCtx(context.Background(), 200)
		if err != nil {
			t.Fatal(err)
		}
		if in.ID != first.ID {
			t.Fatalf("dispatch %d went to %d, want packed onto %d", i, in.ID, first.ID)
		}
	}
	spill, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if spill.ID == first.ID {
		t.Errorf("full bin should spill to another instance")
	}
}

func TestBinPackingFallsBackWhenSaturated(t *testing.T) {
	ml := fig5Queue(t)
	d, err := NewBinPacking(ml)
	if err != nil {
		t.Fatal(err)
	}
	// Every fig5 instance is beyond the pack depth: fallback is the
	// least-loaded candidate (instance 40, outstanding 28).
	in, _, err := d.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 40 {
		t.Errorf("fallback picked %d, want 40 (least loaded candidate)", in.ID)
	}
}

func TestParamValidation(t *testing.T) {
	ml := fig5Queue(t)
	cases := []struct {
		lambda, alpha float64
		peek          int
	}{
		{0, 0.9, 6}, {1.5, 0.9, 6}, {0.85, 0, 6}, {0.85, 1.1, 6}, {0.85, 0.9, 0},
	}
	for _, tc := range cases {
		if _, err := NewRequestSchedulerParams(ml, tc.lambda, tc.alpha, tc.peek); err == nil {
			t.Errorf("params (%v, %v, %d) should fail", tc.lambda, tc.alpha, tc.peek)
		}
	}
	if _, err := NewRequestScheduler(nil); err == nil {
		t.Error("nil queue should fail")
	}
	if _, err := NewILB(nil); err == nil {
		t.Error("nil queue should fail for ILB")
	}
	if _, err := NewIG(nil); err == nil {
		t.Error("nil queue should fail for IG")
	}
	if _, err := NewBinPacking(nil); err == nil {
		t.Error("nil queue should fail for bin packing")
	}
	if _, err := New("bogus", ml); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestNamesStable(t *testing.T) {
	ml := fig5Queue(t)
	for name, want := range map[string]Dispatcher{
		"RS": &RequestScheduler{}, "ILB": &ILB{}, "IG": &IG{}, "LL": &LeastLoaded{}, "INFaaS": &BinPacking{},
	} {
		d, err := New(name, ml)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%T", d), fmt.Sprintf("%T", want); got != want {
			t.Errorf("New(%q) = %s, want %s", name, got, want)
		}
	}
}

func TestThresholdDecaySequence(t *testing.T) {
	// Construct three levels with heads at congestion 0.80 each. With
	// lambda=0.85, alpha=0.5: level0 accepts immediately (0.80 < 0.85).
	// Raise level0 head to 0.90: level1 threshold is 0.425 < 0.80 ->
	// rejected, level2 likewise; fallback to level0.
	ml, err := queue.NewMultiLevel([]int{64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ml.Add(queue.NewInstance(i, i, 8, 10)); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := NewRequestSchedulerParams(ml, 0.85, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 0 {
		t.Fatalf("0.80 < 0.85 should accept level 0, got %d", in.ID)
	}
	// Now level 0's head is at 0.9.
	in0 := byID(t, ml, 0)
	in0.SetOutstanding(9)
	ml.Level(0).Update(in0)
	in, _, err = rs.DispatchCtx(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if in.Runtime != 0 {
		t.Errorf("decayed thresholds reject all; fallback should be level 0, got %d", in.Runtime)
	}
}

// TestDispatchersNeverMisplaceQuick fuzzes all four policies over random
// deployments and request lengths: a dispatched request must always land
// on an instance whose runtime accepts its length, and the queue's
// outstanding accounting must stay consistent.
func TestDispatchersNeverMisplaceQuick(t *testing.T) {
	maxLens := []int{64, 128, 256, 512}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ml, err := queue.NewMultiLevel(maxLens)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(12)
		for id := 0; id < n; id++ {
			if err := ml.Add(queue.NewInstance(id, rng.Intn(len(maxLens)), rng.Intn(50), 10+rng.Intn(50))); err != nil {
				return false
			}
		}
		policies := []Dispatcher{}
		for _, name := range []string{"RS", "ILB", "IG", "INFaaS"} {
			d, err := New(name, ml)
			if err != nil {
				return false
			}
			policies = append(policies, d)
		}
		before := ml.TotalOutstanding()
		dispatched := 0
		for i := 0; i < 60; i++ {
			length := 1 + rng.Intn(600)
			d := policies[rng.Intn(len(policies))]
			in, _, err := d.DispatchCtx(context.Background(), length)
			if err == ErrTooLong {
				if length <= 512 {
					return false // the 512 level always exists as a candidate
				}
				continue
			}
			if err == ErrNoInstances {
				// Legal only when no deployed instance can serve the length.
				for _, lvl := range ml.CandidateLevels(length) {
					if ml.Level(lvl).Len() > 0 {
						return false
					}
				}
				continue
			}
			if err != nil {
				return false
			}
			if maxLens[in.Runtime] < length {
				return false // misplaced
			}
			dispatched++
		}
		return ml.TotalOutstanding() == before+dispatched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
