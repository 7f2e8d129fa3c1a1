package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/tokenizer"
)

func TestNewOptionDefaults(t *testing.T) {
	_, cl := testServer(t)
	srv, err := New(tokenizer.New(), cl)
	if err != nil {
		t.Fatal(err)
	}
	if srv.maxLen != cl.MaxLength() {
		t.Errorf("default max length = %d, want cluster max %d", srv.maxLen, cl.MaxLength())
	}
	if srv.Recorder() != cl.Recorder() {
		t.Error("server does not read the cluster's recorder")
	}
}

func TestNewOptionValidation(t *testing.T) {
	_, cl := testServer(t)
	if _, err := New(tokenizer.New(), cl, WithMaxLength(1)); err == nil {
		t.Error("tiny max length should fail")
	}
	if _, err := New(tokenizer.New(), cl, WithRequestTimeout(0)); err == nil {
		t.Error("zero request timeout should fail")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t) // its own cluster: books for this server alone
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Infer("scrape me after serving this"); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Errorf("content type = %q, want %q", got, obs.ContentType)
	}
	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"arlo_requests_submitted_total 1",
		"arlo_requests_completed_total 1",
		"arlo_requests_in_flight 0",
		"# TYPE arlo_demotions_total counter",
		`arlo_queue_depth{level="0",max_length="64"} 0`,
		`arlo_level_instances{level="0",max_length="64"} 1`,
		"# TYPE arlo_request_latency_seconds histogram",
		"arlo_request_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestInferResponseCarriesSpan(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	resp, err := c.Infer("span fields should be populated here")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExecMS <= 0 {
		t.Errorf("exec_ms = %v, want > 0", resp.ExecMS)
	}
	if resp.QueueMS < 0 {
		t.Errorf("queue_ms = %v, want >= 0", resp.QueueMS)
	}
	if resp.LatencyMS < resp.ExecMS {
		t.Errorf("latency_ms %v < exec_ms %v", resp.LatencyMS, resp.ExecMS)
	}
	if resp.DemotionHops != 0 {
		t.Errorf("demotion_hops = %d on an idle cluster, want 0", resp.DemotionHops)
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(`{"text":""}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("reply is not an error envelope: %v", err)
	}
	if env.Error.Code != CodeInvalidRequest {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeInvalidRequest)
	}
	if env.Error.Message == "" {
		t.Error("envelope message is empty")
	}
}

func TestAPIErrorMatchesSentinels(t *testing.T) {
	for _, tc := range []struct {
		code   string
		target error
	}{
		{CodeCongested, cluster.ErrCongested},
		{CodeDeadlineExceeded, cluster.ErrDeadlineExceeded},
		{CodeUnavailable, cluster.ErrClusterClosed},
		{CodeTooLong, dispatch.ErrTooLong},
		{CodeNoInstances, dispatch.ErrNoInstances},
	} {
		apiErr := &APIError{Status: 503, Code: tc.code, Message: "x"}
		if !errors.Is(apiErr, tc.target) {
			t.Errorf("APIError{%s} should match %v", tc.code, tc.target)
		}
	}
	apiErr := &APIError{Status: 503, Code: CodeCongested}
	if errors.Is(apiErr, cluster.ErrDeadlineExceeded) {
		t.Error("congested must not match ErrDeadlineExceeded")
	}
}

func TestInferAfterCloseMapsToUnavailable(t *testing.T) {
	srv, cl := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl.Close()
	c := &Client{BaseURL: ts.URL}
	_, err := c.Infer("cluster is gone")
	if err == nil {
		t.Fatal("infer against a closed cluster should fail")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeUnavailable {
		t.Errorf("got (%d, %s), want (503, %s)", apiErr.Status, apiErr.Code, CodeUnavailable)
	}
	if !errors.Is(err, cluster.ErrClusterClosed) {
		t.Error("should match cluster.ErrClusterClosed through the envelope")
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, CodeCongested, "try later")
			return
		}
		writeJSON(w, InferResponse{Label: "neutral", SequenceLength: 3, LatencyMS: 1})
	}))
	defer backend.Close()

	c := &Client{BaseURL: backend.URL, MaxRetries: 3, Backoff: time.Millisecond}
	resp, err := c.Infer("retry until it lands")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Label != "neutral" {
		t.Errorf("label = %q", resp.Label)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3", got)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLong, "too long")
	}))
	defer backend.Close()

	c := &Client{BaseURL: backend.URL, MaxRetries: 5, Backoff: time.Millisecond}
	_, err := c.Infer("should fail once")
	if !errors.Is(err, dispatch.ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong match", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls, want 1 (no retries on 4xx)", got)
	}
}

func TestClientDoesNotRetryDeadlineExceeded(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "spent")
	}))
	defer backend.Close()

	c := &Client{BaseURL: backend.URL, MaxRetries: 5, Backoff: time.Millisecond}
	_, err := c.Infer("budget already spent")
	if !errors.Is(err, cluster.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded match", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls, want 1 (no retries on 504)", got)
	}
}

func TestClientRetriesAreBounded(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, CodeCongested, "always busy")
	}))
	defer backend.Close()

	c := &Client{BaseURL: backend.URL, MaxRetries: 2, Backoff: time.Millisecond}
	_, err := c.Infer("never succeeds")
	if !errors.Is(err, cluster.ErrCongested) {
		t.Fatalf("err = %v, want ErrCongested match", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

func TestServerRequestTimeout(t *testing.T) {
	// A request timeout far below any feasible execution forces the
	// server to cancel the dispatch while queued and answer 504.
	_, cl := testServer(t)
	srv, err := New(tokenizer.New(), cl, WithRequestTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	_, err = c.Infer("this cannot possibly finish in a nanosecond")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != CodeDeadlineExceeded {
		t.Errorf("got (%d, %s), want (504, %s)", apiErr.Status, apiErr.Code, CodeDeadlineExceeded)
	}
}

func TestPprofBehindOption(t *testing.T) {
	_, cl := testServer(t)
	plain, err := New(tokenizer.New(), cl)
	if err != nil {
		t.Fatal(err)
	}
	withPprof, err := New(tokenizer.New(), cl, WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		srv  *Server
		want int
	}{
		{plain, http.StatusNotFound},
		{withPprof, http.StatusOK},
	} {
		ts := httptest.NewServer(tc.srv)
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("pprof status = %d, want %d", resp.StatusCode, tc.want)
		}
		ts.Close()
	}
}
