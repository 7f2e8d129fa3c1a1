package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tokenizer"
)

// allocServer is a cluster with compute collapsed to ~0 so handler-level
// allocation measurements aren't dominated by scheduling waits.
func allocServer(tb testing.TB) *Server {
	tb.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		TimeScale: 1e-9,
		Overhead:  -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	srv, err := New(tokenizer.New(), cl, WithMaxLength(512))
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// nopResponseWriter swallows the response so AllocsPerRun sees only the
// handler's own allocations, not a fresh httptest recorder per call.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestInferAllocGuard is the bench-serve regression guard: the JSON hot
// path (read + decode + tokenize + submit + encode) must stay on its
// pooled-buffer diet. The bound has headroom over the measured steady
// state (~10 allocs/op) but catches a return to ReadAll +
// reflection-based encoding (~2-3x that).
func TestInferAllocGuard(t *testing.T) {
	srv := allocServer(t)
	body, _ := json.Marshal(InferRequest{Text: "a mid sized request body for the allocation guard"})
	w := &nopResponseWriter{h: make(http.Header)}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/infer", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rd.Reset(body)
		srv.HandleInfer(w, req)
	}
	run() // warm pools and the cluster's job pool
	allocs := testing.AllocsPerRun(300, run)
	const maxAllocs = 24
	if allocs > maxAllocs {
		t.Errorf("HandleInfer allocs/op = %.1f, want <= %d (JSON hot-path diet regressed)", allocs, maxAllocs)
	}
}

// BenchmarkInferJSONHandler is the handler-level half of make bench-serve.
func BenchmarkInferJSONHandler(b *testing.B) {
	srv := allocServer(b)
	body, _ := json.Marshal(InferRequest{Text: "a mid sized request body for the allocation guard"})
	w := &nopResponseWriter{h: make(http.Header)}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/infer", io.NopCloser(rd))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		srv.HandleInfer(w, req)
	}
}

// BenchmarkInferJSONSocket measures the same request through a real HTTP
// server and the tuned client transport — the in-package view of what the
// benchmark's json_direct workload measures against wire_direct.
func BenchmarkInferJSONSocket(b *testing.B) {
	srv := allocServer(b)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer("a mid sized request body for the allocation guard"); err != nil {
			b.Fatal(err)
		}
	}
}
