package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/serve"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

// testShard is one in-process arlo-server shard with a live wire
// listener, plus the handles the chaos tests use to kill and restart it.
type testShard struct {
	name string
	addr string
	srv  *serve.Server
	cl   *cluster.Cluster
}

// startShard boots a shard with the given per-level instance allocation
// over a compressed-time 2-level {128, 512} profile.
func startShard(t *testing.T, name string, alloc []int, timeScale float64) *testShard {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: alloc,
		TimeScale:         timeScale,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(tokenizer.New(), cl, serve.WithMaxLength(512), serve.WithShardName(name))
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	go func() { _ = srv.ServeWire(l) }()
	ts := &testShard{name: name, addr: l.Addr().String(), srv: srv, cl: cl}
	t.Cleanup(func() { ts.kill() })
	return ts
}

// kill closes the shard's server (listeners and live connections) and
// its cluster. Idempotent.
func (ts *testShard) kill() {
	_ = ts.srv.Close()
	ts.cl.Close()
}

// restart brings the shard back on its previous address with a fresh
// cluster and server.
func (ts *testShard) restart(t *testing.T, alloc []int, timeScale float64) {
	t.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: alloc,
		TimeScale:         timeScale,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(tokenizer.New(), cl, serve.WithMaxLength(512), serve.WithShardName(ts.name))
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", ts.addr)
	if err != nil {
		cl.Close()
		t.Fatalf("restart listen on %s: %v", ts.addr, err)
	}
	go func() { _ = srv.ServeWire(l) }()
	ts.srv, ts.cl = srv, cl
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func shardConfigs(shards ...*testShard) []ShardConfig {
	out := make([]ShardConfig, len(shards))
	for i, s := range shards {
		out[i] = ShardConfig{Name: s.name, Addr: s.addr}
	}
	return out
}

func TestRouterHTTPInferEndToEnd(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	b := startShard(t, "b", []int{1, 1}, 0.01)
	r := newRouter(t, Config{Shards: shardConfigs(a, b), SnapshotRefreshInterval: 10 * time.Millisecond})
	hts := httptest.NewServer(r)
	defer hts.Close()

	resp, err := hts.Client().Post(hts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"text":"the router forwards this request to a shard"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Label == "" || out.SequenceLength == 0 {
		t.Errorf("thin response: %+v", out)
	}
	if out.Shard != "a" && out.Shard != "b" {
		t.Errorf("shard = %q", out.Shard)
	}
	if out.RouteMS < 0 {
		t.Errorf("route_ms = %v", out.RouteMS)
	}

	// The routed answer must match what the shard itself would compute:
	// label and sequence length agree with a direct single-process call.
	direct := httptest.NewServer(a.srv)
	defer direct.Close()
	dresp, err := direct.Client().Post(direct.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"text":"the router forwards this request to a shard"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dout serve.InferResponse
	if err := json.NewDecoder(dresp.Body).Decode(&dout); err != nil {
		t.Fatal(err)
	}
	if dout.Label != out.Label || dout.SequenceLength != out.SequenceLength {
		t.Errorf("routed (%q, %d) != direct (%q, %d)",
			out.Label, out.SequenceLength, dout.Label, dout.SequenceLength)
	}
}

// TestRouterTextAndTokensAgree: the router appends a text's ids straight
// into the frame it forwards; the shard must answer it exactly as it
// answers the same ids sent pre-encoded, and as it answers the text sent
// to it directly — truncation to the model maximum included.
func TestRouterTextAndTokensAgree(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.001)
	r := newRouter(t, Config{Shards: shardConfigs(a), SnapshotRefreshInterval: 10 * time.Millisecond})
	tok := tokenizer.New()
	for _, text := range []string{
		"x",
		"the router forwards this request to a shard",
		"!?!?!?!?!?!?!?!?!?!?!?!?", // a token a byte
		strings.Repeat("serving latency, ", 400),
	} {
		var ids []uint32
		tok.Borrow(text, r.cfg.MaxLength, func(lent []uint32) { ids = slices.Clone(lent) })
		routedText, _ := r.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: text})
		routedTokens, _ := r.Do(context.Background(), wire.Request{Mode: wire.ModeTokens, Tokens: ids})
		direct, _ := a.srv.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: text})
		for name, got := range map[string]wire.Response{"routed tokens": routedTokens, "direct text": direct} {
			if got.Status != wire.StatusOK || routedText.Status != wire.StatusOK {
				t.Fatalf("%.20q: status %v (routed text), %v (%s)", text, routedText.Status, got.Status, name)
			}
			if got.SeqLen != routedText.SeqLen || got.Label != routedText.Label {
				t.Errorf("%.20q: routed text got (%d, %d), %s got (%d, %d)", text,
					routedText.SeqLen, routedText.Label, name, got.SeqLen, got.Label)
			}
		}
		if int(routedText.SeqLen) != len(ids) {
			t.Errorf("%.20q: sequence length %d, the tokenizer says %d", text, routedText.SeqLen, len(ids))
		}
	}
}

func TestRouterHTTPGenerate(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	r := newRouter(t, Config{Shards: shardConfigs(a), SnapshotRefreshInterval: 10 * time.Millisecond})
	hts := httptest.NewServer(r)
	defer hts.Close()

	resp, err := hts.Client().Post(hts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"text":"generate from this prompt","max_new_tokens":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out serve.GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.OutputTokens != 4 || out.TTFTMS <= 0 {
		t.Errorf("generate response: %+v", out)
	}

	// Unknown fields reject with unsupported_field, like the shard's own
	// strict decode.
	resp2, err := hts.Client().Post(hts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"text":"x","max_new_tokens":4,"temperature":0.7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env serve.ErrorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 400 || env.Error.Code != serve.CodeUnsupportedField {
		t.Errorf("unknown field: status %d code %q", resp2.StatusCode, env.Error.Code)
	}
}

// The front end splices the route fields into an OK reply by hand
// (serve.appendHop); InferResponse declares them for a client, and a
// generate reply carries the same three after serve.GenerateResponse's.
// This pins the one to the other: a routed body is byte for byte
// json.Marshal of the struct it decodes into — names, order, hops omitted
// when zero, the shard name escaped.
func TestRoutedReplyBytes(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	const name = `a"<é>`
	for _, tc := range []struct {
		path, body string
		reply      func() any
	}{
		{"/v1/infer", `{"text":"pin the routed reply bytes"}`, func() any { return new(InferResponse) }},
		{"/v1/generate", `{"text":"pin the routed reply bytes","max_new_tokens":3}`, func() any {
			return new(struct {
				serve.GenerateResponse
				RouteMS float64 `json:"route_ms"`
				Shard   string  `json:"shard"`
				Hops    int     `json:"hops,omitempty"`
			})
		}},
	} {
		// The second shard dies after the router's only refresh, so the
		// router still counts it up. Round-robin over two candidates starts
		// at the second: the first request takes one hop past the dead
		// shard, the next ones none.
		gone := startShard(t, "gone", []int{1, 1}, 0.01)
		r := newRouter(t, Config{
			Shards:                  []ShardConfig{{Name: name, Addr: a.addr}, {Name: "gone", Addr: gone.addr}},
			Policy:                  PolicyRoundRobin,
			SnapshotRefreshInterval: time.Hour,
		})
		waitRefresh(t, r, 1)
		gone.kill()
		for _, hops := range []int{1, 0} {
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			body := rec.Body.Bytes()
			var route struct {
				Shard string `json:"shard"`
				Hops  int    `json:"hops"`
			}
			if err := json.Unmarshal(body, &route); err != nil || rec.Code != 200 || route.Shard != name || route.Hops != hops {
				t.Fatalf("%s: status %d, shard %q after %d hops (%v), want %q after %d: %s",
					tc.path, rec.Code, route.Shard, route.Hops, err, name, hops, body)
			}
			reply := tc.reply()
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(reply); err != nil {
				t.Fatalf("%s: %v: %s", tc.path, err, body)
			}
			want, err := json.Marshal(reply)
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != string(want)+"\n" {
				t.Errorf("%s reply diverged from %T:\n got: %s\nwant: %s", tc.path, reply, body, want)
			}
		}
	}
}

func TestRouterWireFrontEndToEnd(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	b := startShard(t, "b", []int{1, 1}, 0.01)
	r := newRouter(t, Config{Shards: shardConfigs(a, b), SnapshotRefreshInterval: 10 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.ServeWire(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pipeline a few requests with distinct ids; all must come back with
	// their own id and StatusOK.
	const n = 8
	var reqBuf []byte
	for i := 1; i <= n; i++ {
		reqBuf = wire.AppendFrame(reqBuf[:0], wire.AppendRequest(nil, &wire.Request{
			ID:   uint64(i),
			Mode: wire.ModeText,
			Text: "pipelined request through the router tier",
		}))
		if _, err := nc.Write(reqBuf); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(nc)
	var buf []byte
	got := map[uint64]bool{}
	for i := 0; i < n; i++ {
		var payload []byte
		payload, buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("id %d: status %v (%s)", resp.ID, resp.Status, resp.Message)
		}
		if got[resp.ID] {
			t.Fatalf("duplicate response for id %d", resp.ID)
		}
		got[resp.ID] = true
	}
}

func TestRouterPolicies(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	b := startShard(t, "b", []int{1, 1}, 0.01)
	c := startShard(t, "c", []int{1, 1}, 0.01)
	for _, policy := range []Policy{PolicyLengthAware, PolicyRoundRobin, PolicyLeastLoaded} {
		t.Run(policy.String(), func(t *testing.T) {
			r := newRouter(t, Config{
				Shards:                  shardConfigs(a, b, c),
				Policy:                  policy,
				SnapshotRefreshInterval: 5 * time.Millisecond,
				Seed:                    7,
			})
			hts := httptest.NewServer(r)
			defer hts.Close()
			var wg sync.WaitGroup
			errs := make(chan error, 30)
			for i := 0; i < 30; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := hts.Client().Post(hts.URL+"/v1/infer", "application/json",
						strings.NewReader(`{"text":"spread across shards"}`))
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			routed := uint64(0)
			for _, sh := range r.shards {
				routed += sh.requests.Load()
			}
			if routed < 30 {
				t.Errorf("routed %d requests, want >= 30", routed)
			}
			if policy == PolicyRoundRobin {
				// Round-robin must touch every shard.
				for _, sh := range r.shards {
					if sh.requests.Load() == 0 {
						t.Errorf("round-robin left shard %s unused", sh.name)
					}
				}
			}
		})
	}
}

// TestPolicySharesOnFrozenSnapshots is the deterministic twin of the
// routing claim's herding arm (arlobench -exp claim-router): three shards
// of 2, 6 and 8 instances whose one snapshot shows empty queues and never
// refreshes, no sockets, and 3,000 decisions with nothing completing in
// between, so only the router's own in-flight count tells the shards
// apart. Least-loaded reads the frozen snapshot and herds onto one shard;
// length-aware's local correction spreads the picks by capacity;
// round-robin splits them evenly whatever the capacity.
func TestPolicySharesOnFrozenSnapshots(t *testing.T) {
	instances := []uint16{2, 6, 8}
	const picks, fleet = 3000, 16
	for _, policy := range []Policy{PolicyLengthAware, PolicyRoundRobin, PolicyLeastLoaded} {
		t.Run(policy.String(), func(t *testing.T) {
			r := &Router{
				cfg: Config{Policy: policy, SnapshotRefreshInterval: time.Second, MaxLength: 512},
				rng: rand.New(rand.NewSource(7)),
			}
			for _, n := range instances {
				sh := &shard{}
				sh.snap.Store(&snapEntry{at: time.Now(), snap: wire.LoadSnapshot{Healthy: n, Levels: []wire.LoadLevel{
					{MaxLength: 128, Instances: n / 2}, {MaxLength: 512, Instances: n / 2}}}})
				r.shards = append(r.shards, sh)
			}
			lengths := rand.New(rand.NewSource(11))
			for i := 0; i < picks; i++ {
				length := 16 + lengths.Intn(104)
				if lengths.Float64() < 0.3 {
					length = 320 + lengths.Intn(180)
				}
				r.shards[r.pick(length, make([]bool, len(r.shards)))].inflight.Add(1)
			}
			for i, sh := range r.shards {
				share := float64(sh.inflight.Load()) / picks
				switch policy {
				case PolicyLeastLoaded:
					if got := sh.inflight.Load(); got != 0 && got != picks {
						t.Errorf("shard %d took %d picks; least-loaded on a frozen snapshot should herd onto one shard", i, got)
					}
				case PolicyRoundRobin:
					if got := sh.inflight.Load(); got != picks/3 {
						t.Errorf("shard %d took %d picks, want exactly %d", i, got, picks/3)
					}
				default:
					if want := float64(instances[i]) / fleet; share < want-0.10 || share > want+0.10 {
						t.Errorf("shard %d took %.3f of the picks, want its capacity share %.3f within 0.10", i, share, want)
					}
				}
			}
		})
	}
}

func TestRouterHealthzAggregation(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	b := startShard(t, "b", []int{1, 1}, 0.01)
	r := newRouter(t, Config{Shards: shardConfigs(a, b), SnapshotRefreshInterval: 5 * time.Millisecond})
	waitRefresh(t, r, 2)
	hts := httptest.NewServer(r)
	defer hts.Close()

	var hr HealthResponse
	getJSON(t, hts, "/healthz", 200, &hr)
	if hr.Status != "ok" || len(hr.Shards) != 2 {
		t.Fatalf("healthz = %+v", hr)
	}
	for _, sh := range hr.Shards {
		if sh.State != "up" || sh.Healthy != 2 || sh.SnapshotAgeMS < 0 {
			t.Errorf("shard %s: %+v", sh.Name, sh)
		}
	}

	// Kill one shard: tier stays ok, the dead shard reports down.
	b.kill()
	waitFor(t, 2*time.Second, func() bool {
		var hr HealthResponse
		getJSON(t, hts, "/healthz", 200, &hr)
		for _, sh := range hr.Shards {
			if sh.Name == "b" && sh.State == "down" {
				return true
			}
		}
		return false
	})

	// Kill the other: the tier itself goes unavailable (503).
	a.kill()
	waitFor(t, 2*time.Second, func() bool {
		resp, err := hts.Client().Get(hts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == 503
	})
}

func TestRouterMetrics(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	r := newRouter(t, Config{Shards: shardConfigs(a), SnapshotRefreshInterval: 5 * time.Millisecond})
	hts := httptest.NewServer(r)
	defer hts.Close()
	resp, err := hts.Client().Post(hts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"text":"count me"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := hts.Client().Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`arlo_router_requests_total{shard="a"} 1`,
		"arlo_router_reroutes_total 0",
		`arlo_router_shard_up{shard="a"} 1`,
		"arlo_router_snapshot_age_seconds",
		"arlo_router_route_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// nopResponseWriter swallows the reply so AllocsPerRun sees the handler's
// allocations, not a fresh recorder per call.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestRouterInferAllocGuard is serve's TestInferAllocGuard for the routed
// JSON path: the router's /v1/infer is the shared handler (pooled body
// read, hand-rolled encode), and this keeps it from quietly returning to
// ReadAll + reflection. It bounds the whole hop — router handler,
// forward, the in-process shard's wire loop, reply — as allocations over
// the same shard's own handler, which cancels what both paths share (the
// cluster, and sync.Pool's drops under -race): measured 16 here, 23 for
// the router's hand-written handler before the front ends were merged.
func TestRouterInferAllocGuard(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 1e-9)
	// An hourly refresh keeps probe traffic out of the measurement.
	r := newRouter(t, Config{Shards: shardConfigs(a), SnapshotRefreshInterval: time.Hour})
	waitRefresh(t, r, 1)
	body := []byte(`{"text":"a mid sized request body for the allocation guard"}`)
	w := &nopResponseWriter{h: make(http.Header)}
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/infer", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(handle http.HandlerFunc) float64 {
		run := func() {
			rd.Reset(body)
			handle(w, req)
		}
		run() // warm the pools and dial the shard
		return testing.AllocsPerRun(300, run)
	}
	const maxHop = 19
	if routed, direct := allocs(r.HandleInfer), allocs(a.srv.HandleInfer); routed-direct > maxHop {
		t.Errorf("routed /v1/infer = %.1f allocs/op against %.1f direct, want <= %d more (JSON hot-path diet regressed)",
			routed, direct, maxHop)
	}
}

// A shard dial that hits its one-second bound fails with an error that
// matches context.DeadlineExceeded (net's timeout error does). That is a
// transport failure to route around, not the client's deadline; only a
// finished client context is answered deadline_exceeded.
func TestDialTimeoutReroutes(t *testing.T) {
	a := startShard(t, "a", []int{1, 1}, 0.01)
	dial := dialWire
	t.Cleanup(func() { dialWire = dial })
	var blackhole atomic.Bool
	dialWire = func(ctx context.Context, addr string) (*serve.WireClient, error) {
		if addr != "b" {
			return dial(ctx, addr)
		}
		if blackhole.Load() {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: context.DeadlineExceeded}
		}
		return dial(ctx, a.addr) // b answers like a until it turns into a blackhole
	}
	// Round-robin over two candidates starts at the second. After the
	// router's only refresh b's connection drops and its next dial times
	// out, while the router still counts it up.
	r := newRouter(t, Config{
		Shards:                  []ShardConfig{{Name: "a", Addr: a.addr}, {Name: "b", Addr: "b"}},
		Policy:                  PolicyRoundRobin,
		SnapshotRefreshInterval: time.Hour,
	})
	waitRefresh(t, r, 1)
	blackhole.Store(true)
	b := r.shards[1]
	b.connMu.Lock()
	_ = b.conn.Close()
	b.connMu.Unlock()
	req := wire.Request{Mode: wire.ModeText, Text: "routed around the shard that cannot be dialed"}
	resp, hop := r.Do(context.Background(), req)
	if resp.Status != wire.StatusOK || hop.Shard != "a" || hop.Hops != 1 {
		t.Errorf("dial timeout: status %v (%s) from shard %q after %d hops, want ok from a after 1",
			resp.Status, resp.Message, hop.Shard, hop.Hops)
	}
	if !r.shards[1].down.Load() {
		t.Error("dial timeout did not mark the shard down")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := r.Reroutes()
	if resp, _ := r.Do(ctx, req); resp.Status != wire.StatusDeadline || r.Reroutes() != before {
		t.Errorf("finished client context: status %v with %d reroutes, want deadline_exceeded with none",
			resp.Status, r.Reroutes()-before)
	}
}

// The refresh interval sets how often a shard is probed, not how long a
// probe may take. A shard whose load snapshots arrive ten intervals late,
// but well within the probe's second, stays up on the one connection it
// was dialed on and takes its round-robin share.
func TestSlowProbeKeepsShardUp(t *testing.T) {
	const interval, lag = 5 * time.Millisecond, 50 * time.Millisecond
	ok := func(*wire.Request) wire.Response { return wire.Response{Status: wire.StatusOK} }
	fast, slow := startFakeShard(t, 0, ok), startFakeShard(t, lag, ok)
	dial := dialWire
	t.Cleanup(func() { dialWire = dial })
	var slowDials atomic.Int64
	dialWire = func(ctx context.Context, addr string) (*serve.WireClient, error) {
		if addr == "slow" {
			slowDials.Add(1)
			addr = slow.l.Addr().String()
		}
		return dial(ctx, addr)
	}
	r := newRouter(t, Config{
		Shards:                  []ShardConfig{{Name: "fast", Addr: fast.l.Addr().String()}, {Name: "slow", Addr: "slow"}},
		Policy:                  PolicyRoundRobin,
		SnapshotRefreshInterval: interval,
	})
	sh := r.shards[1]
	deadline := time.Now().Add(2 * time.Second)
	for e := sh.snapshot(); e == nil || e.snap.Seq < 3; e = sh.snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("slow shard: no third snapshot in 2 s (down %v); its probes time out with the %v interval",
				sh.down.Load(), interval)
		}
		time.Sleep(interval)
	}
	for i := 0; i < 10; i++ {
		if resp, hop := r.Do(context.Background(), wire.Request{Mode: wire.ModeText, Text: "either shard"}); resp.Status != wire.StatusOK {
			t.Fatalf("request %d: status %v from %q", i, resp.Status, hop.Shard)
		}
	}
	if sh.down.Load() || sh.requests.Load() == 0 || slowDials.Load() != 1 {
		t.Errorf("slow shard: down %v, %d of 10 requests, dialed %d times; want up, its share, one dial",
			sh.down.Load(), sh.requests.Load(), slowDials.Load())
	}
}

// waitRefresh blocks until every shard has a snapshot with seq >= minSeq.
func waitRefresh(t *testing.T, r *Router, minSeq uint64) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		for _, sh := range r.shards {
			e := sh.snapshot()
			if e == nil || e.snap.Seq < minSeq {
				return false
			}
		}
		return true
	})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

func getJSON(t *testing.T, hts *httptest.Server, path string, wantStatus int, v any) {
	t.Helper()
	resp, err := hts.Client().Get(hts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
