package dispatch

import (
	"context"
	"testing"

	"arlo/internal/queue"
)

// TestDecisionPaperExample re-runs the Fig. 5 walk-through through
// DispatchCtx and checks the Decision record matches the algorithm trace:
// ideal level 2 (256) congested, chosen level 3 (512), two levels peeked.
func TestDecisionPaperExample(t *testing.T) {
	ml := fig5Queue(t)
	rs, err := NewRequestSchedulerParams(ml, 0.85, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, dec, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 40 {
		t.Errorf("instance = %d, want 40", in.ID)
	}
	// Ideal level 2 (max_length 256) is congested; level 3 (512) takes the
	// request at the second peek, with no fallback.
	if want := (Decision{IdealLevel: 2, Level: 3, Instance: 40, Peeked: 2}); dec != want {
		t.Errorf("decision = %+v, want %+v", dec, want)
	}
}

// TestDecisionNamesInstance drives every policy over the Fig. 5 queue
// with no completions in between, so the walks run through demotion and
// fallback, and checks that each successful dispatch's decision names the
// instance it returns and that instance's level.
func TestDecisionNamesInstance(t *testing.T) {
	for _, name := range []string{"RS", "ILB", "IG", "INFaaS"} {
		d, err := New(name, fig5Queue(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ok := 0
		for i := 0; i < 200; i++ {
			in, dec, err := d.DispatchCtx(context.Background(), 1+(i*37)%520)
			if err != nil {
				continue
			}
			ok++
			if dec.Instance != in.ID || dec.Level != in.Runtime {
				t.Fatalf("%s: dispatch %d: decision %+v, instance %d at level %d", name, i, dec, in.ID, in.Runtime)
			}
		}
		if ok == 0 {
			t.Errorf("%s: no dispatch succeeded", name)
		}
	}
}

func TestDecisionNoDemotionWhenIdle(t *testing.T) {
	ml := fig5Queue(t)
	rs, err := NewRequestSchedulerParams(ml, 0.85, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := rs.DispatchCtx(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if dec.IdealLevel != 0 || dec.Level != 0 {
		t.Errorf("levels = (%d, %d), want (0, 0)", dec.IdealLevel, dec.Level)
	}
	if dec.Peeked != 1 {
		t.Errorf("peeked = %d, want 1", dec.Peeked)
	}
}

// TestDecisionFallback congests every candidate level so the scheduler
// takes the Algorithm 1 lines 18-20 fallback and marks the decision.
func TestDecisionFallback(t *testing.T) {
	ml, err := queue.NewMultiLevel([]int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.Add(queue.NewInstance(1, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := ml.Add(queue.NewInstance(2, 1, 10, 10)); err != nil {
		t.Fatal(err)
	}
	rs, err := NewRequestScheduler(ml)
	if err != nil {
		t.Fatal(err)
	}
	in, dec, err := rs.DispatchCtx(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Fallback {
		t.Error("fallback not set with every level congested")
	}
	if dec.Peeked != 2 {
		t.Errorf("peeked = %d, want 2", dec.Peeked)
	}
	if in.ID != 1 || dec.Level != 0 {
		t.Errorf("fallback chose instance %d level %d, want top candidate (1, 0)", in.ID, dec.Level)
	}
}

// TestAllPoliciesImplementContextDispatcher exercises every policy
// through the context-first entry point and checks the decision levels
// are sane (chosen never below ideal for schedulers that demote; never
// negative for any). For the policies that balance within a level it also
// pins the eager contract every submit path relies on: each dispatch
// repairs the front before it returns, so 64 dispatches with no
// completion in between spread 16 each over a 4-instance level instead
// of herding onto the instance that was least loaded when they began.
func TestAllPoliciesImplementContextDispatcher(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spreads bool
	}{
		{"RS", true}, {"ILB", true}, {"IG", true},
		{"INFaaS", false}, // packs the fullest bin below its depth by design
	} {
		name := tc.name
		ml := fig5Queue(t)
		d, err := New(name, ml)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, dec, err := d.DispatchCtx(context.Background(), 200)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in == nil {
			t.Fatalf("%s: nil instance without error", name)
		}
		if dec.Level != in.Runtime {
			t.Errorf("%s: decision level %d != instance runtime %d", name, dec.Level, in.Runtime)
		}
		if dec.IdealLevel < 0 || dec.Peeked < 1 {
			t.Errorf("%s: implausible decision %+v", name, dec)
		}
		if !tc.spreads {
			continue
		}
		one, err := queue.NewMultiLevel([]int{128})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 4; id++ {
			if err := one.Add(queue.NewInstance(id, 0, 0, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		if d, err = New(name, one); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 64; i++ {
			if _, _, err := d.DispatchCtx(context.Background(), 100); err != nil {
				t.Fatalf("%s: dispatch %d: %v", name, i, err)
			}
		}
		for _, in := range one.Level(0).AppendInstances(nil) {
			if got := in.Outstanding(); got != 16 {
				t.Errorf("%s: instance %d holds %d of 64 back-to-back dispatches, want 16", name, in.ID, got)
			}
		}
	}
}

// TestDispatchAndDispatchCtxAgree pins that the context is advisory: a
// dispatch under a cancelled context picks the instance a background one
// picks from the same queue state.
func TestDispatchAndDispatchCtxAgree(t *testing.T) {
	a := fig5Queue(t)
	b := fig5Queue(t)
	rsA, err := NewRequestSchedulerParams(a, 0.85, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rsB, err := NewRequestSchedulerParams(b, 0.85, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, length := range []int{30, 100, 200, 400, 512} {
		inA, _, errA := rsA.DispatchCtx(context.Background(), length)
		inB, _, errB := rsB.DispatchCtx(cancelled, length)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("length %d: error mismatch %v vs %v", length, errA, errB)
		}
		if errA != nil {
			continue
		}
		if inA.ID != inB.ID {
			t.Errorf("length %d: background context chose %d, cancelled context chose %d", length, inA.ID, inB.ID)
		}
	}
}
