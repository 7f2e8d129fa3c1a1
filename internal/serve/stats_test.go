package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"arlo/internal/obs"
)

// statsBody answers GET /v1/stats straight off the handler.
func statsBody(t *testing.T, srv *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats status %d: %s", w.Code, w.Body)
	}
	return w.Body.String()
}

// statsOf decodes GET /v1/stats.
func statsOf(t *testing.T, srv *Server) Stats {
	t.Helper()
	var st Stats
	if err := json.Unmarshal([]byte(statsBody(t, srv)), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsPinned pins the /v1/stats bytes to the recorder's books: counts
// are lifetime, percentiles are the nearest-rank bucket's upper bound
// (125 us * 2^k) over the recorder's window.
func TestStatsPinned(t *testing.T) {
	srv, cl := testServer(t)
	rec := srv.Recorder()
	if rec != cl.Recorder() {
		t.Fatal("server without a recorder shared with its cluster")
	}
	now := time.Now()
	record := func(n int, total time.Duration, at time.Time) {
		for i := 0; i < n; i++ {
			rec.RecordSubmit(100)
			rec.RecordSpanAt(&obs.Span{Length: 100, Total: total}, at)
		}
	}
	// Ten minutes old: on the served count, outside the 60 s window.
	record(1, 5*time.Second, now.Add(-10*time.Minute))
	record(97, 900*time.Microsecond, now) // (0.5, 1] ms bucket
	record(3, 40*time.Millisecond, now)   // (32, 64] ms bucket
	for i := 0; i < 3; i++ {
		rec.RecordSubmit(100)
	}
	rec.RecordCancel()
	rec.RecordReject(obs.RejectCongested)
	rec.RecordReject(obs.RejectRateLimited)

	const want = `{"served":101,"rejected":3,"instances":8,"p50_ms":1,"p98_ms":64}` + "\n"
	if got := statsBody(t, srv); got != want {
		t.Errorf("/v1/stats body\n got %q\nwant %q", got, want)
	}
}

// TestStatsCostIndependentOfCount closes the second-window defect: the
// server keeps no per-request sample, so a million recorded spans neither
// grow its heap nor slow the query down.
func TestStatsCostIndependentOfCount(t *testing.T) {
	srv, _ := testServer(t)
	rec := srv.Recorder()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	statsBody(t, srv) // warm the handler path before measuring
	before := heap()
	now := time.Now()
	sp := obs.Span{Length: 100}
	for i := 0; i < 1_000_000; i++ {
		sp.Total = time.Duration(100+i%5000) * time.Microsecond
		rec.RecordSpanAt(&sp, now)
	}
	if after := heap(); after > before+1<<20 {
		t.Errorf("heap grew %d -> %d bytes over 1M recorded spans, want within 1 MiB", before, after)
	}
	if st := statsOf(t, srv); st.Served != 1_000_000 || st.P98MS <= st.P50MS {
		t.Errorf("stats after 1M spans: %+v", st)
	}
	// Best of a few: the bound is on the query's own cost, not on the
	// scheduler's mood.
	best := time.Hour
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		statsBody(t, srv)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if best >= time.Millisecond {
		t.Errorf("/v1/stats took %v with 1M spans on the books, want < 1ms", best)
	}
}
