package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tokenizer"
)

// hammerServer builds a small cluster and returns its recorder, on which
// the conservation invariant is checkable at the serve boundary.
func hammerServer(t *testing.T, opts ...Option) (*Server, *obs.Recorder) {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		TimeScale: 0.05, // compress emulated compute so the hammer churns
		Overhead:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, err := New(tokenizer.New(), cl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, cl.Recorder()
}

// hammer fires concurrent POST /v1/infer with mid-flight cancellations
// and checks the conservation invariant: every request the recorder saw
// submitted resolved exactly one way, and no load leaks.
func hammer(t *testing.T, srv *Server, rec *obs.Recorder) {
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		producers = 8
		perProd   = 25
	)
	body, _ := json.Marshal(InferRequest{Text: "a mid sized request body for the hammer to chew on"})
	// ok counts the 200s the clients read; aborted the requests a client
	// gave up on, each of which the server may still have completed.
	var ok, aborted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProd; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					// Mid-flight cancellation at a random point inside the
					// request's expected lifetime.
					d := time.Duration(rng.Intn(2_000)) * time.Microsecond
					time.AfterFunc(d, cancel)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					cancel()
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := ts.Client().Do(req)
				if err == nil {
					_ = resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						ok.Add(1)
					case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					default:
						t.Errorf("unexpected status %d", resp.StatusCode)
					}
				} else if ctx.Err() == nil {
					t.Errorf("transport error without cancellation: %v", err)
				} else {
					aborted.Add(1)
				}
				cancel()
			}
		}(p)
	}
	wg.Wait()

	// Conservation at the serve boundary: the cluster resolved every
	// submission exactly once and holds no residual load.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec.Submitted() == rec.Completed()+rec.Cancelled()+rec.Rejected() &&
			srv.cluster.Outstanding() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, c, x, r := rec.Submitted(), rec.Completed(), rec.Cancelled(), rec.Rejected()
	if s != c+x+r {
		t.Errorf("books: submitted %d != completed %d + cancelled %d + rejected %d", s, c, x, r)
	}
	if s == 0 {
		t.Error("hammer produced no submissions")
	}
	if got := srv.cluster.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d after drain, want 0", got)
	}
	// /v1/stats against what the clients saw: every 200 is one served
	// request, and only a request its client abandoned can be served
	// without a 200 to show for it.
	if st := statsOf(t, srv); st.Served < ok.Load() || st.Served > ok.Load()+aborted.Load() {
		t.Errorf("/v1/stats served %d, clients read %d OK and abandoned %d", st.Served, ok.Load(), aborted.Load())
	}
}

func TestHammerInferDirect(t *testing.T) {
	srv, rec := hammerServer(t)
	hammer(t, srv, rec)
}

func TestHammerInferIngress(t *testing.T) {
	srv, rec := hammerServer(t, WithIngress(cluster.IngressConfig{Shards: 2, MaxGroup: 8}))
	hammer(t, srv, rec)
}

// TestHammerWire is the binary-protocol hammer: pipelined concurrent
// submissions with mid-flight cancellations over a handful of shared
// connections.
func TestHammerWire(t *testing.T) {
	srv, rec := hammerServer(t, WithIngress(cluster.IngressConfig{Shards: 2, MaxGroup: 8}))
	addr := startWire(t, srv)

	const (
		conns   = 4
		workers = 4
		perW    = 15
	)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c, err := DialWire(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perW; i++ {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if rng.Intn(3) == 0 {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2_000))*time.Microsecond)
					}
					_, err := c.InferCtx(ctx, "wire hammer request text")
					if err != nil && ctx.Err() == nil && !errors.Is(err, cluster.ErrDeadlineExceeded) &&
						!errors.Is(err, cluster.ErrCongested) {
						t.Errorf("unexpected wire error: %v", err)
					}
					cancel()
				}
			}(int64(ci*workers + w))
		}
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec.Submitted() == rec.Completed()+rec.Cancelled()+rec.Rejected() &&
			srv.cluster.Outstanding() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s, c, x, r := rec.Submitted(), rec.Completed(), rec.Cancelled(), rec.Rejected(); s != c+x+r {
		t.Errorf("books: submitted %d != completed %d + cancelled %d + rejected %d", s, c, x, r)
	}
	if got := srv.cluster.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d after drain, want 0", got)
	}
}
