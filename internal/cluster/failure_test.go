package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/obs"
)

// failCluster builds a small cluster with an observer wired, compressed
// enough that failure windows are observable but tests stay fast.
func failCluster(t *testing.T, alloc []int, scale float64) (*Cluster, *obs.Recorder) {
	t.Helper()
	p := testProfile(t, []int{128, 512})
	rec := obs.NewRecorder(len(alloc))
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: alloc,
		Dispatcher:        rsFactory,
		TimeScale:         scale,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(rec)
	return c, rec
}

// TestFailInstanceRequeuesToSurvivors kills one of two instances under
// load and checks the conservation invariant: every submission completes
// exactly once or fails with a typed error — the recorder's books balance
// to zero — and the displaced work shows up on the requeue counters.
func TestFailInstanceRequeuesToSurvivors(t *testing.T) {
	c, rec := failCluster(t, []int{0, 2}, 0.05)
	defer c.Close()

	const n = 60
	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		completed     int
		unserviceable int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.SubmitCtx(context.Background(), Request{Length: 300})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrUnserviceable):
				unserviceable++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	// Let load build on both instances, then crash one permanently.
	time.Sleep(2 * time.Millisecond)
	if _, err := c.FailInstance(1, 0); err != nil {
		t.Fatalf("FailInstance: %v", err)
	}
	wg.Wait()

	if completed+unserviceable != n {
		t.Fatalf("conservation violated: %d completed + %d unserviceable != %d submitted",
			completed, unserviceable, n)
	}
	if got := rec.Submitted() - rec.Completed() - rec.Cancelled() - rec.Rejected(); got != 0 {
		t.Errorf("recorder books unbalanced by %d", got)
	}
	if c.Instances() != 1 {
		t.Errorf("instances = %d after permanent failure, want 1", c.Instances())
	}
}

// TestFailInstanceRecovery crashes an instance with a downtime and checks
// it rejoins through the topology path: the count recovers, the health
// report flips dead -> healthy, and the dead entry carries the old ID.
func TestFailInstanceRecovery(t *testing.T) {
	c, _ := failCluster(t, []int{0, 2}, 1)
	defer c.Close()

	id, err := c.FailInstance(1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if c.Instances() != 1 {
		t.Fatalf("instances = %d right after failure, want 1", c.Instances())
	}
	sum := Summarize(c.Health())
	if sum.Dead != 1 || sum.Healthy != 1 {
		t.Fatalf("health during downtime = %+v, want 1 dead / 1 healthy", sum)
	}
	var seen bool
	for _, h := range c.Health() {
		if h.ID == id && h.State == obs.Dead {
			seen = true
		}
	}
	if !seen {
		t.Errorf("failed instance %d not reported dead in %+v", id, c.Health())
	}

	deadline := time.Now().Add(2 * time.Second)
	for c.Instances() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Instances() != 2 {
		t.Fatalf("instance did not rejoin: %d instances", c.Instances())
	}
	if sum := Summarize(c.Health()); sum.Dead != 0 || sum.Healthy != 2 {
		t.Errorf("health after recovery = %+v, want 2 healthy", sum)
	}
	// The rejoined instance serves: a submission completes.
	if _, err := c.Submit(300); err != nil {
		t.Errorf("submit after recovery: %v", err)
	}
}

// TestUnserviceableAfterBudget queues work on the only instance and kills
// it for good: every displaced request must terminate with
// ErrUnserviceable (never hang, never silently vanish), and both requeue
// reasons — queued and in-flight — must be represented.
func TestUnserviceableAfterBudget(t *testing.T) {
	c, rec := failCluster(t, []int{0, 1}, 1)
	defer c.Close()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.SubmitCtx(context.Background(), Request{Length: 400})
			errs <- err
		}()
	}
	// Wait until work is queued on the lone instance, then crash it.
	deadline := time.Now().Add(time.Second)
	for c.Outstanding() < n && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := c.FailInstance(1, 0); err != nil {
		t.Fatal(err)
	}
	var unserviceable, completed int
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrUnserviceable):
				unserviceable++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request neither completed nor failed: work lost")
		}
	}
	if completed+unserviceable != n {
		t.Fatalf("%d completed + %d unserviceable != %d", completed, unserviceable, n)
	}
	if unserviceable == 0 {
		t.Error("expected at least one unserviceable request after killing the only instance")
	}
	if rec.RejectedFor(obs.RejectUnserviceable) != int64(unserviceable) {
		t.Errorf("unserviceable rejections = %d, want %d",
			rec.RejectedFor(obs.RejectUnserviceable), unserviceable)
	}
	if rec.Requeues() == 0 {
		t.Error("no requeues recorded for displaced work")
	}
	if got := rec.Submitted() - rec.Completed() - rec.Cancelled() - rec.Rejected(); got != 0 {
		t.Errorf("recorder books unbalanced by %d", got)
	}
}

// TestSlowInstanceDegradesAndRestores drives the degraded-mode path:
// SlowInstance marks the victim degraded (visible in Health and the
// metrics exposition), execution still completes, and RestoreInstance
// brings it back to healthy.
func TestSlowInstanceDegradesAndRestores(t *testing.T) {
	c, rec := failCluster(t, []int{0, 2}, 0.05)
	defer c.Close()

	id, err := c.SlowInstance(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(c.Health())
	if sum.Degraded != 1 || sum.Healthy != 1 {
		t.Fatalf("health = %+v, want 1 degraded / 1 healthy", sum)
	}
	if _, err := c.Submit(300); err != nil {
		t.Errorf("submit with degraded instance: %v", err)
	}
	var sb strings.Builder
	if err := rec.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `state="degraded"`) {
		t.Error("metrics exposition missing degraded instance state")
	}
	if !strings.Contains(sb.String(), "arlo_requeues_total{reason=\"queued\"}") {
		t.Error("metrics exposition missing arlo_requeues_total series")
	}
	if err := c.RestoreInstance(id); err != nil {
		t.Fatal(err)
	}
	if sum := Summarize(c.Health()); sum.Degraded != 0 || sum.Healthy != 2 {
		t.Errorf("health after restore = %+v, want 2 healthy", sum)
	}
	if err := c.RestoreInstance(9999); err == nil {
		t.Error("restoring unknown instance should fail")
	}
	if _, err := c.SlowInstance(1, 0); err == nil {
		t.Error("non-positive slow factor should fail")
	}
}

// TestFailInstanceValidation covers the error paths: bad runtime index,
// empty runtime, and failing after Close.
func TestFailInstanceValidation(t *testing.T) {
	c, _ := failCluster(t, []int{0, 1}, 1)
	if _, err := c.FailInstance(7, 0); err == nil {
		t.Error("out-of-range runtime should fail")
	}
	if _, err := c.FailInstance(0, 0); err == nil {
		t.Error("failing an empty runtime should error")
	}
	if _, err := c.SlowInstance(0, 2); err == nil {
		t.Error("slowing an empty runtime should error")
	}
	c.Close()
	if _, err := c.FailInstance(1, 0); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("FailInstance after Close = %v, want ErrClusterClosed", err)
	}
	if _, err := c.SlowInstance(1, 2); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("SlowInstance after Close = %v, want ErrClusterClosed", err)
	}
}

// TestCancelDuringRequeue races context cancellation against the failure
// requeue path: whichever side wins, the submitter returns promptly and
// the job is neither lost nor double-completed.
func TestCancelDuringRequeue(t *testing.T) {
	c, rec := failCluster(t, []int{0, 2}, 1)
	defer c.Close()

	const n = 20
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	outcomes := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.SubmitCtx(ctx, Request{Length: 400})
			outcomes <- err
		}()
	}
	time.Sleep(time.Millisecond)
	if _, err := c.FailInstance(1, 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	close(outcomes)
	for err := range outcomes {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrUnserviceable) && !errors.Is(err, ErrDeadlineExceeded) &&
			!errors.Is(err, ErrCongested) && !errors.Is(err, dispatch.ErrNoInstances) {
			t.Errorf("unexpected outcome: %v", err)
		}
	}
	if got := rec.Submitted() - rec.Completed() - rec.Cancelled() - rec.Rejected(); got != 0 {
		t.Errorf("recorder books unbalanced by %d", got)
	}
}
