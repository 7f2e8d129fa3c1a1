package queue

import (
	"math/rand"
	"testing"
)

// refVictim is the naive reference spelling of the selection rule, kept
// deliberately close to the simulator's historical mostLoadedOf /
// mostLoadedAny implementations so PickVictim cannot drift from them.
func refVictim(insts []*Instance, rtIdx int) *Instance {
	var worst *Instance
	for _, in := range insts {
		if rtIdx >= 0 && in.Runtime != rtIdx {
			continue
		}
		if worst == nil {
			worst = in
			continue
		}
		if in.Outstanding() > worst.Outstanding() {
			worst = in
		} else if in.Outstanding() == worst.Outstanding() && in.ID < worst.ID {
			worst = in
		}
	}
	return worst
}

// TestPickVictimMatchesSimRule pins the shared victim-selection rule
// against the reference model over randomized instance sets: most loaded
// wins, ties break toward the smaller ID, -1 means cluster-wide.
func TestPickVictimMatchesSimRule(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		insts := make([]*Instance, n)
		for i := range insts {
			insts[i] = NewInstance(i, rng.Intn(3), rng.Intn(5), 10)
		}
		// Shuffle so selection cannot depend on slice order.
		rng.Shuffle(n, func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		for rt := -1; rt < 3; rt++ {
			got, want := PickVictim(insts, rt), refVictim(insts, rt)
			if got != want {
				t.Fatalf("trial %d rt %d: PickVictim = %v, reference = %v", trial, rt, got, want)
			}
		}
	}
}

func TestPickVictimEmpty(t *testing.T) {
	if v := PickVictim(nil, -1); v != nil {
		t.Errorf("PickVictim(nil) = %v, want nil", v)
	}
	insts := []*Instance{NewInstance(0, 0, 3, 10)}
	if v := PickVictim(insts, 1); v != nil {
		t.Errorf("PickVictim for runtime with no instances = %v, want nil", v)
	}
}

func TestPickVictimPrefersMostLoaded(t *testing.T) {
	insts := []*Instance{
		NewInstance(0, 0, 2, 10),
		NewInstance(1, 0, 7, 10),
		NewInstance(2, 1, 9, 10),
	}
	if v := PickVictim(insts, 0); v.ID != 1 {
		t.Errorf("victim of runtime 0 = %d, want 1 (most loaded)", v.ID)
	}
	if v := PickVictim(insts, -1); v.ID != 2 {
		t.Errorf("cluster-wide victim = %d, want 2 (most loaded anywhere)", v.ID)
	}
}

// refIdlest is the reference spelling of the graceful-removal rule: the
// simulator's historical leastLoadedOf (one runtime) and leastLoadedAny
// (cluster-wide), kept as two loops so PickIdlest cannot drift from them.
func refIdlest(insts []*Instance, rtIdx int) *Instance {
	less := func(a, b *Instance) bool {
		return a.Outstanding() < b.Outstanding() ||
			(a.Outstanding() == b.Outstanding() && a.ID < b.ID)
	}
	var best *Instance
	if rtIdx < 0 {
		for _, in := range insts {
			if best == nil || less(in, best) {
				best = in
			}
		}
		return best
	}
	for _, in := range insts {
		if in.Runtime != rtIdx {
			continue
		}
		if best == nil || less(in, best) {
			best = in
		}
	}
	return best
}

// TestPickIdlestMatchesReference pins the shared retire rule against the
// reference model over randomized instance sets: least loaded wins, ties
// break toward the smaller ID, -1 means any runtime. Runtime 3 never has
// an instance, and an empty set matches nothing.
func TestPickIdlestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		insts := make([]*Instance, n)
		for i := range insts {
			insts[i] = NewInstance(i, rng.Intn(3), rng.Intn(5), 10)
		}
		rng.Shuffle(n, func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		for rt := -1; rt < 4; rt++ {
			got, want := PickIdlest(insts, rt), refIdlest(insts, rt)
			if got != want {
				t.Fatalf("trial %d rt %d: PickIdlest = %v, reference = %v", trial, rt, got, want)
			}
			if rt == 3 && got != nil {
				t.Fatalf("trial %d: PickIdlest for a runtime with no instances = %v, want nil", trial, got)
			}
		}
	}
	if v := PickIdlest(nil, -1); v != nil {
		t.Errorf("PickIdlest(nil) = %v, want nil", v)
	}
	insts := []*Instance{NewInstance(4, 0, 2, 10), NewInstance(1, 0, 7, 10), NewInstance(2, 1, 2, 10)}
	if v := PickIdlest(insts, 0); v.ID != 4 {
		t.Errorf("idlest of runtime 0 = %d, want 4 (least loaded)", v.ID)
	}
	if v := PickIdlest(insts, -1); v.ID != 2 {
		t.Errorf("idlest anywhere = %d, want 2 (tie at 2 goes to the smaller ID)", v.ID)
	}
}
