package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
)

func rsFactory(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
	return dispatch.NewRequestScheduler(ml)
}

// submitAsync is the tests' fire-and-collect submission: SubmitCtx's three
// steps with only the wait on a goroutine, so the request is dispatched —
// or refused, with the error returned here — before this returns, and a
// burst of calls queues up in microseconds. A failure after dispatch
// yields a negative latency on the channel.
func submitAsync(c *Cluster, length int) (<-chan time.Duration, error) {
	ctx := context.Background()
	j, err := c.lease(ctx, Request{Length: length})
	if err == nil {
		err = c.submit(ctx, j)
	}
	if err != nil {
		return nil, err
	}
	done := make(chan time.Duration, 1)
	go func() {
		var res Result
		if err := c.await(ctx, j, &res); err != nil {
			res.Latency = -1
		}
		done <- res.Latency
	}()
	return done, nil
}

func testProfile(t testing.TB, lengths []int) *profiler.Profile {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), lengths, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	p := testProfile(t, []int{512})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil profile", Config{InitialAllocation: []int{1}, Dispatcher: rsFactory}},
		{"nil dispatcher", Config{Profile: p, InitialAllocation: []int{1}}},
		{"dim mismatch", Config{Profile: p, InitialAllocation: []int{1, 1}, Dispatcher: rsFactory}},
		{"negative", Config{Profile: p, InitialAllocation: []int{-2}, Dispatcher: rsFactory}},
		{"empty", Config{Profile: p, InitialAllocation: []int{0}, Dispatcher: rsFactory}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSubmitMeasuresModeledLatency(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lat, err := c.Submit(100)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Runtimes[0].Latency // ~4.86 ms
	if lat < want || lat > want+20*time.Millisecond {
		t.Errorf("latency = %v, want >= %v and close to it", lat, want)
	}
}

func TestTimeScaleCompressesWallTime(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		TimeScale:         0.5,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	lat, err := c.Submit(100)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	// Reported latency is back in model time (>= one modeled execution);
	// wall time is roughly half of it.
	if lat < p.Runtimes[0].Latency {
		t.Errorf("reported latency %v below one modeled execution %v", lat, p.Runtimes[0].Latency)
	}
	if wall > lat {
		t.Errorf("wall time %v should be compressed below modeled %v", wall, lat)
	}
}

func TestQueueingAccumulates(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fire 5 requests at once into a single worker: the last should wait
	// ~5 executions.
	const n = 5
	chans := make([]<-chan time.Duration, n)
	for i := 0; i < n; i++ {
		ch, err := submitAsync(c, 100)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	var max time.Duration
	for _, ch := range chans {
		if lat := <-ch; lat > max {
			max = lat
		}
	}
	exec := p.Runtimes[0].Latency
	if max < 4*exec {
		t.Errorf("max latency %v should show queueing (>= ~4 executions of %v)", max, exec)
	}
}

// TestDispatchSpreadsAcrossWorkers submits a burst of eight requests to
// four workers of one runtime. Dispatch is eager, so each submit sees the
// counts the earlier ones left and the burst lands two per instance —
// whatever the host's timing, as long as none completes while the burst
// is still being placed (TimeScale 10 makes one execution ~50 ms against
// microseconds of placing).
func TestDispatchSpreadsAcrossWorkers(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		TimeScale:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	jobs := make([]*job, 8)
	for i := range jobs {
		if jobs[i], err = c.lease(ctx, Request{Length: 100}); err == nil {
			err = c.submit(ctx, jobs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	perInstance := map[int]int{}
	for _, j := range jobs {
		var res Result
		if err := c.await(ctx, j, &res); err != nil {
			t.Fatal(err)
		}
		perInstance[res.Span.Instance]++
	}
	if len(perInstance) != 4 {
		t.Errorf("burst landed on %d instances, want 4: %v", len(perInstance), perInstance)
	}
	for id, n := range perInstance {
		if n != 2 {
			t.Errorf("instance %d served %d of the burst, want 2: %v", id, n, perInstance)
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	p := testProfile(t, []int{64, 128})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		Dispatcher:        rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(4000); err == nil {
		t.Error("over-long request should fail")
	}
	c.Close()
	if _, err := c.Submit(10); err != ErrClusterClosed {
		t.Errorf("submit after close = %v, want ErrClusterClosed", err)
	}
	c.Close() // double close is safe
}

func TestQueueOverflow(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		QueueDepth:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	overflowed := false
	for i := 0; i < 10; i++ {
		if _, err := submitAsync(c, 100); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Error("depth-2 queue should overflow under a burst of 10")
	}
}

func TestInstances(t *testing.T) {
	p := testProfile(t, []int{64, 512})
	c, err := New(Config{Profile: p, InitialAllocation: []int{2, 1}, Dispatcher: rsFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Instances(); got != 3 {
		t.Errorf("instances = %d, want 3", got)
	}
}

// TestConcurrentSubmitClose races many submitters against Close. The
// RWMutex submission protocol must make this safe: every Submit either
// completes or reports ErrClusterClosed — never a send on a closed channel.
func TestConcurrentSubmitClose(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		TimeScale:         0.01,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if _, err := c.Submit(1 + i%512); err != nil {
					if err == ErrClusterClosed {
						return
					}
					continue // overflow etc. is fine; crashes are not
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()
	if _, err := c.Submit(10); err != ErrClusterClosed {
		t.Errorf("Submit after Close = %v, want ErrClusterClosed", err)
	}
}

// TestConcurrentSubmitTopologyChurn races submitters against instance
// add/remove churn — the auto-scaler reshaping the cluster mid-traffic.
func TestConcurrentSubmitTopologyChurn(t *testing.T) {
	p := testProfile(t, []int{256, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher:        rsFactory,
		TimeScale:         0.01,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors (overflow, instance no longer deployed) are
				// legitimate under churn; panics and races are the bug.
				_, _ = c.Submit(1 + (g*131+i)%512)
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		rt := i % 2
		if _, err := c.AddInstance(rt); err != nil {
			t.Errorf("AddInstance: %v", err)
			break
		}
		if _, err := c.RemoveInstance(rt); err != nil {
			t.Errorf("RemoveInstance: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := c.Instances(); got != 4 {
		t.Errorf("instances after churn = %d, want 4", got)
	}
}
