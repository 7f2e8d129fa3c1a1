package allocator

import (
	"errors"
	"reflect"
	"testing"
)

// TestReplan pins the Runtime Scheduler's one step, which the simulator
// (hold 0, budget 0) and the live controller (both from its Options) take.
func TestReplan(t *testing.T) {
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	q := []float64{400, 300, 150, 80, 40, 20, 10, 5}
	current := []int{1, 1, 1, 1, 1, 1, 1, 9} // 16 GPUs, far from the optimum
	want, err := s.Allocate(16, q)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, err := PlanReplacements(current, want.N)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPlan) < 3 {
		t.Fatalf("plan %v is too short to test a budget", wantPlan)
	}

	t.Run("hold 0 and budget 0 apply the solve's whole plan", func(t *testing.T) {
		target, plan, held, err := Replan(s.Allocate, p, current, q, 0, 0)
		if err != nil || held || !reflect.DeepEqual(target, want) || !reflect.DeepEqual(plan, wantPlan) {
			t.Errorf("Replan = (%+v, %v, %v, %v), want (%+v, %v, false, nil)", target, plan, held, err, want, wantPlan)
		}
	})
	t.Run("an absurd hold holds the whole plan", func(t *testing.T) {
		target, plan, held, err := Replan(s.Allocate, p, current, q, 1e9, 2)
		if err != nil || !held || !reflect.DeepEqual(target.N, want.N) || !reflect.DeepEqual(plan, wantPlan) {
			t.Errorf("Replan = (%v, %v, %v, %v), want (%v, %v, true, nil)", target.N, plan, held, err, want.N, wantPlan)
		}
	})
	t.Run("an empty plan is never held", func(t *testing.T) {
		_, plan, held, err := Replan(s.Allocate, p, want.N, q, 1e9, 0)
		if err != nil || held || len(plan) != 0 {
			t.Errorf("Replan from the optimum = (%v, %v, %v), want no plan, not held", plan, held, err)
		}
	})
	t.Run("a deployment that breaks Eq. 7 is never held", func(t *testing.T) {
		broken := []int{3, 3, 2, 2, 2, 2, 2, 0}
		target, plan, held, err := Replan(s.Allocate, p, broken, q, 1e9, 0)
		if err != nil || held || len(plan) == 0 || target.N[len(target.N)-1] < 1 {
			t.Errorf("Replan = (%v, %v, %v, %v), want an applied plan that restores the last runtime", target.N, plan, held, err)
		}
	})
	t.Run("a budget keeps the first replacements", func(t *testing.T) {
		_, plan, held, err := Replan(s.Allocate, p, current, q, 0, 2)
		if err != nil || held || !reflect.DeepEqual(plan, wantPlan[:2]) {
			t.Errorf("Replan = (%v, %v, %v), want (%v, false, nil)", plan, held, err, wantPlan[:2])
		}
	})
	t.Run("a solve error returns no target", func(t *testing.T) {
		boom := errors.New("boom")
		failing := func(int, []float64) (*Allocation, error) { return nil, boom }
		if target, plan, _, err := Replan(failing, p, current, q, 0, 0); target != nil || plan != nil || !errors.Is(err, boom) {
			t.Errorf("Replan = (%v, %v, %v), want (nil, nil, boom)", target, plan, err)
		}
		if target, _, _, err := Replan(s.Allocate, p, make([]int, 8), q, 0, 0); target != nil || err == nil {
			t.Errorf("Replan over no GPUs = (%v, %v), want a solver error", target, err)
		}
	})
	t.Run("a wrong-sized target is returned with the plan error", func(t *testing.T) {
		short := &Allocation{N: []int{16}}
		wrong := func(int, []float64) (*Allocation, error) { return short, nil }
		if target, plan, _, err := Replan(wrong, p, current, q, 0, 0); target != short || plan != nil || err == nil {
			t.Errorf("Replan = (%v, %v, %v), want the target, no plan and an error", target, plan, err)
		}
	})
}
