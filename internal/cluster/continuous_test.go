package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// continuousCluster builds a one-level cluster running the iteration-level
// loop with the given slot count and instance count.
func continuousCluster(t *testing.T, instances, slots int) *Cluster {
	t.Helper()
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{instances},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		MaxBatch:          slots,
		BatchDelay:        -1,
		Continuous:        true,
		MeanOutTokens:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestContinuousGenerativeCompletions drives a mixed burst through one
// continuous worker and audits the generative span plumbing: every
// completion carries its token count, a positive TTFT no later than the
// total, and a batch id from its prefill iteration.
func TestContinuousGenerativeCompletions(t *testing.T) {
	c := continuousCluster(t, 1, 4)

	const n = 12
	results := make([]Result, n)
	outs := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		outs[i] = 1 + (i % 5)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.SubmitCtx(context.Background(), Request{Length: 100, MaxNewTokens: outs[i]})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Span.OutTokens != outs[i] {
			t.Errorf("request %d: out tokens %d, want %d", i, res.Span.OutTokens, outs[i])
		}
		if res.Span.TTFT <= 0 {
			t.Errorf("request %d: TTFT %v, want > 0", i, res.Span.TTFT)
		}
		if res.Span.TTFT > res.Span.Total {
			t.Errorf("request %d: TTFT %v exceeds total %v", i, res.Span.TTFT, res.Span.Total)
		}
		if res.Span.Batch == 0 {
			t.Errorf("request %d: no prefill batch id", i)
		}
		if res.Span.BatchSize < 1 || res.Span.BatchSize > 4 {
			t.Errorf("request %d: batch size %d outside [1, 4]", i, res.Span.BatchSize)
		}
	}
}

// TestContinuousJoinMidFlight pins the headline behavior: a short request
// arriving while a long generation holds the batch joins mid-flight and
// finishes long before the resident sequence — it never waits for the
// long output to run to completion.
func TestContinuousJoinMidFlight(t *testing.T) {
	c := continuousCluster(t, 1, 4)

	longDone := make(chan Result, 1)
	go func() {
		res, err := c.SubmitCtx(context.Background(), Request{Length: 400, MaxNewTokens: 200})
		if err != nil {
			t.Errorf("long submit: %v", err)
		}
		longDone <- res
	}()

	// Let the long request occupy the worker mid-decode, then join.
	time.Sleep(20 * time.Millisecond)
	shortStart := time.Now()
	res, err := c.SubmitCtx(context.Background(), Request{Length: 50, MaxNewTokens: 2})
	if err != nil {
		t.Fatalf("short submit: %v", err)
	}
	shortWall := time.Since(shortStart)

	select {
	case <-longDone:
		t.Fatalf("long request finished before the short one returned (short wall %v)", shortWall)
	default:
	}
	long := <-longDone
	if long.Span.OutTokens != 200 {
		t.Errorf("long out tokens = %d, want 200", long.Span.OutTokens)
	}
	// The short join must share iterations with the resident long request,
	// not queue behind its full run: 2 tokens cost ~2 iterations, far less
	// than the long request's 200.
	if shortWall > long.Latency/4 {
		t.Errorf("short request wall %v not far below long latency %v — no mid-flight join",
			shortWall, long.Latency)
	}
	if res.Span.BatchSize < 2 {
		t.Errorf("short request prefilled alone (batch size %d), expected to share the iteration", res.Span.BatchSize)
	}
}

// TestContinuousMidDecodeCancel cancels a generation mid-decode: the
// submitter gets the context error, the slot frees (audited by a follow-up
// request completing), and the books stay balanced.
func TestContinuousMidDecodeCancel(t *testing.T) {
	c := continuousCluster(t, 1, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.SubmitCtx(ctx, Request{Length: 400, MaxNewTokens: 500})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // well into the decode
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-decode: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the submitter")
	}

	// The abandoned slot must be swept so new work flows.
	res, err := c.SubmitCtx(context.Background(), Request{Length: 50, MaxNewTokens: 2})
	if err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
	if res.Span.OutTokens != 2 {
		t.Errorf("post-cancel out tokens = %d, want 2", res.Span.OutTokens)
	}
}

// TestContinuousCrashDisplacesResidents kills the instance mid-generation:
// resident sequences lose their partial output and re-dispatch to the
// survivor, completing exactly once with full token counts.
func TestContinuousCrashDisplacesResidents(t *testing.T) {
	c := continuousCluster(t, 2, 2)

	const n = 6
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.SubmitCtx(context.Background(), Request{Length: 300, MaxNewTokens: 60})
		}(i)
	}
	time.Sleep(15 * time.Millisecond) // generations under way on both instances
	if _, err := c.FailInstance(0, 0); err != nil {
		t.Fatalf("fail instance: %v", err)
	}
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Errorf("request %d failed across the crash: %v", i, errs[i])
			continue
		}
		if results[i].Span.OutTokens != 60 {
			t.Errorf("request %d: out tokens %d, want 60 (partial generation leaked)", i, results[i].Span.OutTokens)
		}
	}
}

// TestContinuousServesEncoderRequests pins compatibility: a request with
// no output budget flows through the continuous loop as a prefill-only
// resident, with zero generative span fields.
func TestContinuousServesEncoderRequests(t *testing.T) {
	c := continuousCluster(t, 1, 4)
	res, err := c.SubmitCtx(context.Background(), Request{Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Span.OutTokens != 0 {
		t.Errorf("encoder request got %d out tokens", res.Span.OutTokens)
	}
	if res.Span.TTFT != 0 {
		t.Errorf("encoder request got TTFT %v", res.Span.TTFT)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v", res.Latency)
	}
}
