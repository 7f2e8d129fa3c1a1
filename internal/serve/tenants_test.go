package serve

import (
	"bytes"
	"context"
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
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tenant"
	"arlo/internal/tokenizer"
)

// testTenantServer builds a server over a multi-tenant cluster.
func testTenantServer(t *testing.T, cfgs ...tenant.Config) (*Server, *cluster.Cluster) {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), model.BertBaseArch.RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1, 1, 1, 1, 1, 1, 1},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		Tenants: reg,
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

func postInfer(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/infer", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestInferTenantIdentityResolution pins the precedence chain: header
// beats body field, body field beats nothing, and neither means the
// default tenant — verified against the registry's own books.
func TestInferTenantIdentityResolution(t *testing.T) {
	srv, cl := testTenantServer(t,
		tenant.Config{ID: "hdr"},
		tenant.Config{ID: "body"},
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		hdr  map[string]string
		want string
	}{
		{"header wins over body", `{"text":"hi there","tenant":"body"}`,
			map[string]string{TenantHeader: "hdr"}, "hdr"},
		{"body alone", `{"text":"hi there","tenant":"body"}`, nil, "body"},
		{"neither is default", `{"text":"hi there"}`, nil, tenant.DefaultID},
	}
	reg := cl.Tenants()
	for _, tc := range cases {
		before := reg.Get(tc.want).Stat().Admitted
		resp := postInfer(t, ts.URL, tc.body, tc.hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		if got := reg.Get(tc.want).Stat().Admitted; got != before+1 {
			t.Errorf("%s: tenant %q admitted %d, want %d", tc.name, tc.want, got, before+1)
		}
	}
}

// TestInferTenantFieldKeepsByteCompat: a request carrying the new tenant
// body field must produce byte-identical response output to the same text
// without it — tenancy adds no response surface to /v1/infer.
func TestInferTenantFieldKeepsByteCompat(t *testing.T) {
	srv, _ := testTenantServer(t, tenant.Config{ID: "a"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	read := func(body string) []byte {
		resp := postInfer(t, ts.URL, body, nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := read(`{"text":"the same words"}`)
	tenanted := read(`{"text":"the same words","tenant":"a"}`)
	// Latency fields differ run to run; compare the structural bytes by
	// re-encoding through the typed response.
	var a, b InferResponse
	if err := json.Unmarshal(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tenanted, &b); err != nil {
		t.Fatal(err)
	}
	if a.Label != b.Label || a.SequenceLength != b.SequenceLength {
		t.Errorf("tenant field changed the response: %+v vs %+v", a, b)
	}
	// And the raw bytes must re-encode exactly via the pinned encoder —
	// no extra fields appeared for tenanted requests.
	if want := appendInferResponse(nil, &b); !bytes.Equal(tenanted, want) {
		t.Errorf("tenanted response bytes diverge from the pinned encoding:\n got: %s\nwant: %s", tenanted, want)
	}
}

// TestInferRateLimited429 pins the rejection surface: HTTP 429, the
// rate_limited envelope code, and a Retry-After header of at least one
// whole second.
func TestInferRateLimited429(t *testing.T) {
	srv, _ := testTenantServer(t,
		tenant.Config{ID: "tight", Capacity: 16, RefillPerSec: 0.001})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	hdr := map[string]string{TenantHeader: "tight"}
	resp := postInfer(t, ts.URL, `{"text":"first one fits the bucket"}`, hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget request: status %d", resp.StatusCode)
	}
	resp = postInfer(t, ts.URL, `{"text":"second one finds it empty"}`, hdr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := time.ParseDuration(ra + "s")
	if err != nil || secs < time.Second {
		t.Errorf("Retry-After %q, want whole seconds >= 1", ra)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeRateLimited {
		t.Errorf("envelope code %q, want %q", env.Error.Code, CodeRateLimited)
	}
}

// TestClientRetryAfterFloorsBackoff: a 429 with Retry-After must floor
// the client's backoff wait — it retries, but not before the hinted
// horizon.
func TestClientRetryAfterFloorsBackoff(t *testing.T) {
	var calls atomic.Int64
	var firstGap atomic.Int64
	var last atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		now := time.Now().UnixNano()
		if prev := last.Swap(now); n == 2 {
			firstGap.Store(now - prev)
		}
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, CodeRateLimited, "bucket empty")
			return
		}
		resp := InferResponse{Label: "neutral", SequenceLength: 3}
		_, _ = w.Write(appendInferResponse(nil, &resp))
	}))
	defer fake.Close()

	c := &Client{BaseURL: fake.URL, MaxRetries: 2, Backoff: time.Millisecond, Tenant: "t"}
	start := time.Now()
	out, err := c.Infer("hello")
	if err != nil {
		t.Fatalf("retry did not recover from 429: %v", err)
	}
	if out.Label != "neutral" {
		t.Fatalf("wrong response after retry: %+v", out)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
	// The 1ms backoff alone would retry almost instantly; the Retry-After
	// floor stretches the gap to ~1s.
	if gap := time.Duration(firstGap.Load()); gap < 900*time.Millisecond {
		t.Errorf("retry gap %v ignored Retry-After of 1s", gap)
	}
	if el := time.Since(start); el < 900*time.Millisecond {
		t.Errorf("total elapsed %v below the hinted horizon", el)
	}
}

// TestClientRateLimitedNotRetriedPastBudget: 429 stays an *APIError that
// matches ErrRateLimited once retries are exhausted.
func TestClientRateLimitedNotRetriedPastBudget(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusTooManyRequests, CodeRateLimited, "always empty")
	}))
	defer fake.Close()
	c := &Client{BaseURL: fake.URL, MaxRetries: 0}
	_, err := c.Infer("hello")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err %v does not match ErrRateLimited", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err %v, want 429 APIError", err)
	}
}

// TestTenantsAdminCRUD drives the admin surface end to end: list, read,
// create, live-update, and every rejection class.
func TestTenantsAdminCRUD(t *testing.T) {
	srv, cl := testTenantServer(t,
		tenant.Config{ID: "a", SLOClass: "interactive", Capacity: 100, RefillPerSec: 10, Weight: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// List: the configured tenant plus the implicit default, sorted.
	resp, body := do(http.MethodGet, "/v1/tenants", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list TenantList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 2 || list.Tenants[0].ID != "a" || list.Tenants[1].ID != tenant.DefaultID {
		t.Fatalf("list = %+v", list.Tenants)
	}

	// Read one, counters included.
	resp, body = do(http.MethodGet, "/v1/tenants/a", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var rec TenantRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SLOClass != "interactive" || rec.Capacity != 100 || rec.Weight != 4 || rec.Admitted != 0 {
		t.Fatalf("record = %+v", rec)
	}

	// Unknown tenant is 404 not_found.
	resp, body = do(http.MethodGet, "/v1/tenants/nobody", "")
	var env ErrorEnvelope
	_ = json.Unmarshal(body, &env)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Fatalf("unknown get: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// Create a new record via PUT; the path supplies the id.
	resp, body = do(http.MethodPut, "/v1/tenants/b", `{"slo_class":"batch","weight":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	if got, _ := cl.Tenants().Lookup("b"); got == nil || got.Class() != tenant.Batch {
		t.Fatal("PUT did not create the record in the live registry")
	}

	// Live-update an existing record; the running cluster sees it.
	resp, _ = do(http.MethodPut, "/v1/tenants/a", `{"id":"a","weight":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	if w := cl.Tenants().Get("a").Weight(); w != 9 {
		t.Fatalf("live weight %v after PUT, want 9", w)
	}

	// Rejections: body/path id mismatch, unknown field (strict decode),
	// invalid config, wrong method.
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"id mismatch", http.MethodPut, "/v1/tenants/a", `{"id":"zzz"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown field", http.MethodPut, "/v1/tenants/a", `{"burst":5}`, http.StatusBadRequest, CodeUnsupportedField},
		{"invalid config", http.MethodPut, "/v1/tenants/a", `{"weight":-3}`, http.StatusBadRequest, CodeInvalidRequest},
		{"bad json", http.MethodPut, "/v1/tenants/a", `{`, http.StatusBadRequest, CodeInvalidRequest},
		{"delete", http.MethodDelete, "/v1/tenants/a", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"post list", http.MethodPost, "/v1/tenants", ``, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	} {
		resp, body = do(tc.method, tc.path, tc.body)
		_ = json.Unmarshal(body, &env)
		if resp.StatusCode != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q", tc.name, resp.StatusCode, env.Error.Code, tc.status, tc.code)
		}
	}
}

// TestTenantsAdmin404WhenDisabled: the whole admin surface answers 404
// not_found on a single-tenant cluster.
func TestTenantsAdmin404WhenDisabled(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/tenants"},
		{http.MethodGet, "/v1/tenants/a"},
		{http.MethodPut, "/v1/tenants/a"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(`{}`))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
			t.Errorf("%s %s: status %d code %q, want 404 not_found", tc.method, tc.path, resp.StatusCode, env.Error.Code)
		}
	}
}

// TestWireTenantIdentityAndRateLimit drives tenant identity through the
// binary protocol: the client's Tenant upgrades frames to V2, admission
// rejections come back as StatusRateLimited with a usable retry hint, and
// the V1 path (no tenant) is untouched.
func TestWireTenantIdentityAndRateLimit(t *testing.T) {
	srv, cl := testTenantServer(t,
		tenant.Config{ID: "w", Capacity: 16, RefillPerSec: 0.001})
	addr := startWire(t, srv)

	// V1 first: a client with no tenant set books to the default record.
	plain, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.InferCtx(context.Background(), "short hello"); err != nil {
		t.Fatalf("V1 infer on a tenant-enabled server: %v", err)
	}
	if got := cl.Tenants().Get(tenant.DefaultID).Stat().Admitted; got != 1 {
		t.Fatalf("default tenant admitted %d after a V1 request, want 1", got)
	}

	// V2: tenant identity rides the frame; the books move with it.
	tc, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tc.Tenant = "w"
	if _, err := tc.InferCtx(context.Background(), "short hello"); err != nil {
		t.Fatalf("tenanted infer: %v", err)
	}
	if got := cl.Tenants().Get("w").Stat().Admitted; got != 1 {
		t.Fatalf("tenant w admitted %d, want 1", got)
	}

	// The bucket is spent: the next request must rate-limit with a typed
	// error carrying the Retry-After horizon.
	_, err = tc.InferCtx(context.Background(), "this one finds the bucket empty")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-budget wire request returned %v, want ErrRateLimited", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("wire rejection %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter <= 0 {
		t.Fatalf("wire rejection status %d retryAfter %v", apiErr.Status, apiErr.RetryAfter)
	}
	if got := cl.Tenants().Get("w").Stat().Rejected; got != 1 {
		t.Fatalf("tenant w rejected %d, want 1", got)
	}
}
