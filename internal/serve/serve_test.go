package serve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tokenizer"
)

func testServer(t *testing.T) (*Server, *cluster.Cluster) {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), model.BertBaseArch.RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1, 1, 1, 1, 1, 1, 1},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, err := New(tokenizer.New(), cl, WithMaxLength(512))
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl
}

func TestNewValidation(t *testing.T) {
	_, cl := testServer(t)
	if _, err := New(nil, cl); err == nil {
		t.Error("nil tokenizer should fail")
	}
	if _, err := New(tokenizer.New(), nil); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := New(tokenizer.New(), cl, WithMaxLength(1)); err == nil {
		t.Error("tiny max length should fail")
	}
}

func TestInferEndToEnd(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	resp, err := c.Infer("the data team won the game today")
	if err != nil {
		t.Fatal(err)
	}
	if resp.SequenceLength < 3 {
		t.Errorf("sequence length = %d, want >= 3", resp.SequenceLength)
	}
	if resp.LatencyMS <= 0 {
		t.Errorf("latency = %v, want > 0", resp.LatencyMS)
	}
	switch resp.Label {
	case "positive", "negative", "neutral":
	default:
		t.Errorf("unexpected label %q", resp.Label)
	}
	// Determinism: same text, same label.
	resp2, err := c.Infer("the data team won the game today")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Label != resp.Label {
		t.Errorf("labels differ across identical inputs: %q vs %q", resp.Label, resp2.Label)
	}
}

func TestInferRejectsBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		do   func() (int, error)
	}{
		{"GET method", func() (int, error) {
			resp, err := ts.Client().Get(ts.URL + "/v1/infer")
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			return resp.StatusCode, nil
		}},
		{"bad JSON", func() (int, error) {
			resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", strings.NewReader("{"))
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			return resp.StatusCode, nil
		}},
		{"empty text", func() (int, error) {
			resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(`{"text":""}`))
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			return resp.StatusCode, nil
		}},
	} {
		code, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code < 400 || code >= 500 {
			t.Errorf("%s: status = %d, want 4xx", tc.name, code)
		}
	}
}

func TestStatsCountServed(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Infer("hello world this is a test"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != n {
		t.Errorf("served = %d, want %d", stats.Served, n)
	}
	if stats.Instances != 8 {
		t.Errorf("instances = %d, want 8", stats.Instances)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestClientErrorPaths(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"} // nothing listening
	if _, err := c.Infer("x"); err == nil {
		t.Error("unreachable server should error")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("unreachable server should error for stats")
	}
}

func TestClassifyDeterministic(t *testing.T) {
	a := classify([]uint32{1, 2, 3})
	b := classify([]uint32{1, 2, 3})
	if a != b {
		t.Error("classify must be deterministic")
	}
	if classify([]uint32{1, 2, 3}) == classify([]uint32{3, 2, 1}) &&
		classify([]uint32{5}) == classify([]uint32{6}) &&
		classify([]uint32{7}) == classify([]uint32{8}) {
		t.Error("classify looks constant across distinct inputs")
	}
}

func TestStatsIncludePercentiles(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	for i := 0; i < 10; i++ {
		if _, err := c.Infer("some words to classify now"); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.P50MS <= 0 || stats.P98MS < stats.P50MS {
		t.Errorf("percentiles look wrong: p50=%v p98=%v", stats.P50MS, stats.P98MS)
	}
}
