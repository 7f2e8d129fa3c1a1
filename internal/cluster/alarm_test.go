//go:build linux

package cluster

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestSleepsWakeOnTime is the timing gate on the worker's sleeps: at
// TimeScale 1 a kernel longer than spinGuard, and a batch collection
// window, last their modeled length and not a poller millisecond more.
// Each is read off ~40 spans: none may be short, and the median overrun
// must stay under 150 µs. Woken by a Go timer alone an idle runtime
// overshoots by 0.3-0.9 ms, and this fails.
func TestSleepsWakeOnTime(t *testing.T) {
	const (
		runs       = 41
		maxOverrun = 150 * time.Microsecond
		window     = 2500 * time.Microsecond
	)
	// One static 256-token runtime: every request costs the same 2.74 ms.
	p := testProfile(t, []int{256})
	cost := p.Runtimes[0].Latency
	for _, m := range []struct {
		name     string
		maxBatch int
		want     time.Duration
		read     func(Result) time.Duration
	}{
		{"sequential exec", 0, cost, func(r Result) time.Duration { return r.Span.Exec }},
		{"lone batch member's form wait", 4, window, func(r Result) time.Duration { return r.Span.FormWait }},
	} {
		t.Run(m.name, func(t *testing.T) {
			c, err := New(Config{
				Profile:           p,
				InitialAllocation: []int{1},
				Dispatcher:        rsFactory,
				Overhead:          -1,
				MaxBatch:          m.maxBatch,
				BatchDelay:        window,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			overruns := make([]time.Duration, runs)
			for i := range overruns {
				res, err := c.SubmitCtx(context.Background(), Request{Length: 100})
				if err != nil {
					t.Fatal(err)
				}
				got := m.read(res)
				if got < m.want {
					t.Fatalf("run %d: %v, shorter than the modeled %v", i, got, m.want)
				}
				overruns[i] = got - m.want
			}
			slices.Sort(overruns)
			med, p90 := overruns[runs/2], overruns[runs*9/10]
			t.Logf("overrun past the modeled %v: median %v, p90 %v", m.want, med, p90)
			if med > maxOverrun {
				t.Errorf("median overrun %v, want <= %v", med, maxOverrun)
			}
		})
	}
}
