package dispatch

import (
	"context"
	"fmt"
	"testing"

	"arlo/internal/queue"
)

// TestDispatchAllocGuard holds the Fig. 9 pin by test: one DispatchCtx
// plus the OnComplete that pairs with it allocates nothing — for the
// Request Scheduler at the figure's scale (12 levels, 1,200 instances,
// L = 6 and 12) and for every baseline on a queue whose levels fit
// BinPacking's 64-instance scan buffer.
func TestDispatchAllocGuard(t *testing.T) {
	build := func(instances int) *queue.MultiLevel {
		maxLens := make([]int, 12)
		for i := range maxLens {
			maxLens[i] = 64 * (i + 1)
		}
		ml, err := queue.NewMultiLevel(maxLens)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < instances; id++ {
			if err := ml.Add(queue.NewInstance(id, id%12, id%40, 60)); err != nil {
				t.Fatal(err)
			}
		}
		return ml
	}
	guard := func(name string, ml *queue.MultiLevel, d Dispatcher) {
		ctx, i := context.Background(), 0
		allocs := testing.AllocsPerRun(2000, func() {
			in, _, err := d.DispatchCtx(ctx, 1+(i*193)%768)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ml.OnComplete(in) // keep load steady across runs
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per DispatchCtx+OnComplete, want 0", name, allocs)
		}
	}
	for _, maxPeek := range []int{6, 12} {
		ml := build(1200)
		rs, err := NewRequestSchedulerParams(ml, 0.85, 0.9, maxPeek)
		if err != nil {
			t.Fatal(err)
		}
		guard(fmt.Sprintf("RS 1200 instances L=%d", maxPeek), ml, rs)
	}
	for _, name := range []string{"ILB", "IG", "INFaaS"} {
		ml := build(12 * 64)
		d, err := New(name, ml)
		if err != nil {
			t.Fatal(err)
		}
		guard(name, ml, d)
	}
}
