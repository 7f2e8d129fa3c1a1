// The error-passthrough pin (a sharded tier's most common regression):
// a shard's typed rejection must reach the client exactly as the shard
// wrote it — same stable code, same HTTP status, same Retry-After hint —
// never rewrapped into a generic 502/internal. The fake shard scripts
// each status; the live-tenant test drives a real token bucket through
// the hop.

package router

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
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
	"arlo/internal/serve"
	"arlo/internal/tenant"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

// fakeShard is a scripted wire listener: load probes get a healthy
// snapshot, loadLag after they arrive, and every inference request gets
// the configured response at once.
type fakeShard struct {
	l       net.Listener
	loadLag time.Duration
	script  func(req *wire.Request) wire.Response
}

func startFakeShard(t *testing.T, loadLag time.Duration, script func(req *wire.Request) wire.Response) *fakeShard {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeShard{l: l, loadLag: loadLag, script: script}
	go fs.serve()
	t.Cleanup(func() { _ = l.Close() })
	return fs
}

func (fs *fakeShard) serve() {
	seq := uint64(0)
	for {
		nc, err := fs.l.Accept()
		if err != nil {
			return
		}
		go func(nc net.Conn) {
			defer nc.Close()
			// Lagged snapshots are written from timers, beside the replies.
			var mu sync.Mutex
			write := func(frame []byte) error {
				mu.Lock()
				defer mu.Unlock()
				_, err := nc.Write(frame)
				return err
			}
			br := bufio.NewReader(nc)
			var buf []byte
			for {
				var payload []byte
				var err error
				payload, buf, err = wire.ReadFrame(br, buf)
				if err != nil {
					return
				}
				var frame []byte
				if payload[0] == wire.KindLoadRequest {
					id, _ := wire.DecodeLoadRequest(payload)
					seq++
					snap := wire.LoadSnapshot{
						ID: id, Seq: seq, Shard: "fake", Healthy: 2,
						Levels: []wire.LoadLevel{
							{MaxLength: 128, Instances: 1, Capacity: 8},
							{MaxLength: 512, Instances: 1, Capacity: 4},
						},
					}
					frame = wire.AppendFrame(nil, wire.AppendLoadSnapshot(nil, &snap))
					if fs.loadLag > 0 {
						time.AfterFunc(fs.loadLag, func() { _ = write(frame) })
						continue
					}
				} else {
					req, err := wire.DecodeRequest(payload, nil)
					if err != nil {
						return
					}
					resp := fs.script(&req)
					resp.ID = req.ID
					frame = wire.AppendFrame(nil, wire.AppendResponse(nil, &resp))
				}
				if write(frame) != nil {
					return
				}
			}
		}(nc)
	}
}

// TestErrorPassthroughHTTP pins every typed shard status' translation at
// the router's JSON front end.
func TestErrorPassthroughHTTP(t *testing.T) {
	cases := []struct {
		name         string
		status       wire.Status
		retryAfterNS uint64
		wantHTTP     int
		wantCode     string
		wantRetry    string // Retry-After header, "" = must be absent
	}{
		{"rate_limited", wire.StatusRateLimited, uint64(2500 * time.Millisecond), 429, "rate_limited", "3"},
		{"rate_limited_subsecond", wire.StatusRateLimited, uint64(10 * time.Millisecond), 429, "rate_limited", "1"},
		{"unserviceable", wire.StatusUnserviceable, 0, 503, "unserviceable", ""},
		{"congested", wire.StatusCongested, 0, 503, "congested", ""},
		{"no_instances", wire.StatusNoInstances, 0, 503, "no_instances", ""},
		{"too_long", wire.StatusTooLong, 0, 413, "too_long", ""},
		{"deadline", wire.StatusDeadline, 0, 504, "deadline_exceeded", ""},
		{"invalid", wire.StatusInvalid, 0, 400, "invalid_request", ""},
		{"unsupported_field", wire.StatusUnsupportedField, 0, 400, "unsupported_field", ""},
		{"internal", wire.StatusInternal, 0, 500, "internal", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := startFakeShard(t, 0, func(req *wire.Request) wire.Response {
				return wire.Response{
					Status:       tc.status,
					RetryAfterNS: tc.retryAfterNS,
					Message:      "scripted " + tc.name,
				}
			})
			// HopBudget 1: a reroute (which would find no untried shard
			// anyway) answers unserviceable, so a status that wrongly
			// reroutes fails the code check instead of passing through.
			r := newRouter(t, Config{
				Shards:                  []ShardConfig{{Name: "fake", Addr: fs.l.Addr().String()}},
				SnapshotRefreshInterval: 5 * time.Millisecond,
				HopBudget:               1,
			})
			hts := httptest.NewServer(r)
			defer hts.Close()
			resp, err := hts.Client().Post(hts.URL+"/v1/infer", "application/json",
				strings.NewReader(`{"text":"trigger the scripted status"}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantHTTP {
				t.Errorf("http status = %d, want %d", resp.StatusCode, tc.wantHTTP)
			}
			var env serve.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (no rewrapping into generic errors)", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message != "scripted "+tc.name {
				t.Errorf("message = %q, want the shard's own", env.Error.Message)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.wantRetry {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
		})
	}
}

// TestErrorPassthroughWire pins the binary front end: status, message
// and retry hint survive untouched.
func TestErrorPassthroughWire(t *testing.T) {
	fs := startFakeShard(t, 0, func(req *wire.Request) wire.Response {
		return wire.Response{
			Status:       wire.StatusRateLimited,
			RetryAfterNS: 42e6,
			Message:      "bucket empty",
		}
	})
	r := newRouter(t, Config{
		Shards:                  []ShardConfig{{Name: "fake", Addr: fs.l.Addr().String()}},
		SnapshotRefreshInterval: 5 * time.Millisecond,
		HopBudget:               1,
	})
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
	frame := wire.AppendFrame(nil, wire.AppendRequest(nil, &wire.Request{
		ID: 9, Mode: wire.ModeText, Text: "hi there",
	}))
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, _, err := wire.ReadFrame(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 9 || resp.Status != wire.StatusRateLimited ||
		resp.RetryAfterNS != 42e6 || resp.Message != "bucket empty" {
		t.Errorf("passthrough mangled: %+v", resp)
	}
}

// TestTenant429ThroughRouter drives a real token bucket: a tenant with a
// near-zero refill exhausts its burst, and the router hop preserves the
// 429 with its Retry-After hint.
func TestTenant429ThroughRouter(t *testing.T) {
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(tenant.Config{ID: "tight", Capacity: 1, RefillPerSec: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		TimeScale:         0.01,
		Tenants:           reg,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, err := serve.New(tokenizer.New(), cl, serve.WithMaxLength(512), serve.WithShardName("tight-shard"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeWire(wl) }()

	r := newRouter(t, Config{
		Shards:                  []ShardConfig{{Name: "tight-shard", Addr: wl.Addr().String()}},
		SnapshotRefreshInterval: 5 * time.Millisecond,
	})
	hts := httptest.NewServer(r)
	defer hts.Close()

	// Hammer with the tenant header until the bucket runs dry; the 429
	// must carry the stable code and a Retry-After hint.
	saw429 := false
	for i := 0; i < 20 && !saw429; i++ {
		req, err := http.NewRequest(http.MethodPost, hts.URL+"/v1/infer",
			strings.NewReader(`{"text":"spend a token"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.TenantHeader, "tight")
		resp, err := hts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 429 {
			saw429 = true
			var env serve.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != "rate_limited" {
				t.Errorf("code = %q, want rate_limited", env.Error.Code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 through the router lost its Retry-After hint")
			}
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("tight tenant never hit the rate limit")
	}
}

// TestRouterRepliesLikeShard: the validation paths of the shared front
// end, driven through a router and against the shard itself. Each row
// asserts the expected code and that the router's reply equals the
// direct server's — status, code, message, Retry-After; the route fields
// aside. (A load probe is the one frame the two answer differently: the
// shard with a snapshot, the router, which has none, as an unknown kind.)
func TestRouterRepliesLikeShard(t *testing.T) {
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Refill 0 makes the refusal's hint (and so its message) constant.
	reg, err := tenant.NewRegistry(tenant.Config{ID: "tight", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		TimeScale:         0.01,
		Tenants:           reg,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, err := serve.New(tokenizer.New(), cl, serve.WithMaxLength(512), serve.WithShardName("s"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	listen := func(serveWire func(net.Listener) error) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = serveWire(l) }()
		return l.Addr().String()
	}
	shardWire := listen(srv.ServeWire)
	r := newRouter(t, Config{
		Shards:                  []ShardConfig{{Name: "s", Addr: shardWire}},
		SnapshotRefreshInterval: 5 * time.Millisecond,
	})
	routerWire := listen(r.ServeWire)
	direct, routed := httptest.NewServer(srv), httptest.NewServer(r)
	defer direct.Close()
	defer routed.Close()

	// reply is what must not differ between the two paths.
	type reply struct {
		id           uint64 // the echoed frame id (0 over HTTP)
		status       int    // HTTP status, or the wire status
		code         string
		message      string
		retryAfter   string
		label        string
		sequenceLen  int
		outputTokens int
	}
	overHTTP := func(base, path, tenantHeader, body string) reply {
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenantHeader != "" {
			req.Header.Set(serve.TenantHeader, tenantHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := reply{status: resp.StatusCode, code: "ok", retryAfter: resp.Header.Get("Retry-After")}
		var body200 serve.GenerateResponse // a superset of InferResponse's fields
		var env serve.ErrorEnvelope
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&body200)
			out.label, out.sequenceLen, out.outputTokens = body200.Label, body200.SequenceLength, body200.OutputTokens
		} else {
			err = json.NewDecoder(resp.Body).Decode(&env)
			out.code, out.message = env.Error.Code, env.Error.Message
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	overWire := func(addr string, payload []byte) reply {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
		got, _, err := wire.ReadFrame(bufio.NewReader(nc), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(got)
		if err != nil {
			t.Fatal(err)
		}
		out := reply{id: resp.ID, status: int(resp.Status), code: resp.Status.String(), message: resp.Message,
			sequenceLen: int(resp.SeqLen), outputTokens: int(resp.OutTokens)}
		if resp.RetryAfterNS != 0 {
			out.retryAfter = time.Duration(resp.RetryAfterNS).String()
		}
		return out
	}
	frame := func(req wire.Request) []byte {
		req.ID = 9
		return wire.AppendRequest(nil, &req)
	}
	// corrupt returns a valid text frame with one header byte overwritten.
	corrupt := func(req wire.Request, at int, b byte) []byte {
		req.Mode, req.Text = wire.ModeText, "some words"
		p := frame(req)
		p[at] = b
		return p
	}

	for _, tc := range []struct {
		name               string
		path, tenant, body string // an HTTP request, or
		payload            []byte // a frame
		wantCode           string
	}{
		{name: "generate unknown field", path: "/v1/generate",
			body: `{"text":"x","max_new_tokens":4,"temperature":0.7}`, wantCode: "unsupported_field"},
		{name: "generate zero budget", path: "/v1/generate",
			body: `{"text":"x","max_new_tokens":0}`, wantCode: "invalid_request"},
		{name: "generate huge budget", path: "/v1/generate",
			body: `{"text":"x","max_new_tokens":1000000}`, wantCode: "invalid_request"},
		{name: "generate served", path: "/v1/generate",
			body: `{"text":"some words","max_new_tokens":3}`, wantCode: "ok"},
		{name: "infer empty text", path: "/v1/infer", body: `{"text":""}`, wantCode: "invalid_request"},
		{name: "infer bad json", path: "/v1/infer", body: `{"text":`, wantCode: "invalid_request"},
		{name: "header tenant beats body", path: "/v1/infer", tenant: "tight",
			body: `{"text":"some words","tenant":"default"}`, wantCode: "rate_limited"},
		{name: "body tenant without header", path: "/v1/infer",
			body: `{"text":"some words","tenant":"tight"}`, wantCode: "rate_limited"},
		{name: "header tenant beats limited body", path: "/v1/infer", tenant: "default",
			body: `{"text":"some words","tenant":"tight"}`, wantCode: "ok"},

		{name: "frame gen zero budget",
			payload: frame(wire.Request{Kind: wire.KindGenRequest, Mode: wire.ModeText, Text: "x"}), wantCode: "invalid_request"},
		{name: "frame gen huge budget",
			payload: frame(wire.Request{Kind: wire.KindGenRequest, Mode: wire.ModeText, Text: "x", MaxNewTokens: 1 << 20}), wantCode: "invalid_request"},
		{name: "frame unknown kind", payload: corrupt(wire.Request{}, 0, 99), wantCode: "unsupported_field"},
		{name: "frame unknown mode", payload: corrupt(wire.Request{}, 17, 7), wantCode: "unsupported_field"},
		{name: "frame unknown version", payload: corrupt(wire.Request{Tenant: "default"}, 1, 3), wantCode: "unsupported_field"},
		{name: "frame truncated", payload: frame(wire.Request{Mode: wire.ModeTokens, Tokens: []uint32{1, 2}})[:22], wantCode: "invalid_request"},
		{name: "frame empty text", payload: frame(wire.Request{Mode: wire.ModeText}), wantCode: "invalid_request"},
		{name: "frame empty tokens", payload: frame(wire.Request{Mode: wire.ModeTokens}), wantCode: "invalid_request"},
		{name: "frame tenant refused", payload: frame(wire.Request{Mode: wire.ModeText, Text: "some words", Tenant: "tight"}), wantCode: "rate_limited"},
		{name: "frame tokens served", payload: frame(wire.Request{Mode: wire.ModeTokens, Tokens: []uint32{5, 6, 7}}), wantCode: "ok"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var viaShard, viaRouter reply
			if tc.payload != nil {
				viaShard, viaRouter = overWire(shardWire, tc.payload), overWire(routerWire, tc.payload)
			} else {
				viaShard = overHTTP(direct.URL, tc.path, tc.tenant, tc.body)
				viaRouter = overHTTP(routed.URL, tc.path, tc.tenant, tc.body)
			}
			if viaShard.code != tc.wantCode {
				t.Errorf("shard answered %+v, want code %q", viaShard, tc.wantCode)
			}
			if viaRouter != viaShard {
				t.Errorf("router's reply differs from the shard's:\n router %+v\n shard  %+v", viaRouter, viaShard)
			}
		})
	}
}
