package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/router"
	"arlo/internal/serve"
	"arlo/internal/tenant"
	"arlo/internal/tokenizer"
)

// A stack is one workload's serving configuration, built in process on
// loopback TCP: one server (two behind a router for wire_routed), its
// listeners, and the client connections the load generator drives.

// shard is one cluster + server behind its wire and HTTP listeners.
type shard struct {
	name    string
	cl      *cluster.Cluster
	srv     *serve.Server
	wireLn  net.Listener
	httpLn  net.Listener
	httpSrv *http.Server
}

func (s *shard) close() {
	_ = s.httpSrv.Close()
	_ = s.srv.Close() // stops the ingress and the wire connections
	for _, l := range []net.Listener{s.wireLn, s.httpLn} {
		if l != nil {
			_ = l.Close() // already closed once served; harmless
		}
	}
	s.cl.Close()
}

type stack struct {
	w        *workload
	tok      *tokenizer.Tokenizer
	profile  *profiler.Profile
	alloc    []int
	solveDur time.Duration
	registry *tenant.Registry
	shards   []*shard

	rt        *router.Router
	rtHTTPLn  net.Listener
	rtHTTPSrv *http.Server
	rtWireLn  net.Listener

	// conns are the load generator's connections: nproc for a closed
	// loop, one per stream for an open loop.
	conns []*conn
}

func rsFactory(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
	return dispatch.NewRequestScheduler(ml)
}

func (st *stack) newShard(name string) (*shard, error) {
	cl, err := cluster.New(cluster.Config{
		Profile:           st.profile,
		InitialAllocation: st.alloc,
		Dispatcher:        rsFactory,
		TimeScale:         st.w.timeScale,
		Overhead:          -1,
		MaxBatch:          st.w.maxBatch,
		Continuous:        st.w.continuous,
		MeanOutTokens:     32,
		Tenants:           st.registry,
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(st.tok, cl,
		serve.WithMaxLength(maxLength),
		serve.WithIngress(cluster.IngressConfig{}),
		serve.WithShardName(name))
	if err != nil {
		cl.Close()
		return nil, err
	}
	s := &shard{name: name, cl: cl, srv: srv, httpSrv: &http.Server{Handler: srv}}
	if s.wireLn, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
		s.httpLn, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	go func() { _ = srv.ServeWire(s.wireLn) }()
	go func() { _ = s.httpSrv.Serve(s.httpLn) }()
	return s, nil
}

// buildStack profiles the model, solves the allocation for the workload's
// own demand, starts the servers and dials the load generator's
// connections. On error everything already started is closed.
func buildStack(w *workload, in *inputs, tok *tokenizer.Tokenizer) (st *stack, err error) {
	st = &stack{w: w, tok: tok}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.profile, err = profiler.StaticProfile(model.BertBase(), w.runtimes, slo); err != nil {
		return st, err
	}
	solver, err := allocator.NewSolver(st.profile)
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	a, err := solver.Allocate(instances, in.demand(w.runtimes, w.offeredRate()))
	st.solveDur = time.Since(t0)
	if err != nil {
		return st, err
	}
	st.alloc = a.N

	if w.tenants {
		st.registry, err = tenant.NewRegistry(
			tenant.Config{ID: victimID, SLOClass: "interactive", Weight: 8},
			tenant.Config{ID: noisyID, SLOClass: "batch", Weight: 1, Capacity: 20000, RefillPerSec: 40000},
		)
		if err != nil {
			return st, err
		}
	}

	names := []string{"a"}
	if w.routed {
		names = []string{"a", "b"}
	}
	for _, name := range names {
		s, err := st.newShard(name)
		if err != nil {
			return st, err
		}
		st.shards = append(st.shards, s)
	}

	wireAddr, httpAddr := st.shards[0].wireLn.Addr().String(), st.shards[0].httpLn.Addr().String()
	if w.routed {
		var cfgs []router.ShardConfig
		for _, s := range st.shards {
			cfgs = append(cfgs, router.ShardConfig{Name: s.name, Addr: s.wireLn.Addr().String()})
		}
		st.rt, err = router.New(router.Config{
			Shards:                  cfgs,
			SnapshotRefreshInterval: 10 * time.Millisecond,
			MaxLength:               maxLength,
			Seed:                    in.routerSeed,
		})
		if err != nil {
			return st, err
		}
		if st.rtWireLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return st, err
		}
		if st.rtHTTPLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return st, err
		}
		st.rtHTTPSrv = &http.Server{Handler: st.rt}
		go func() { _ = st.rt.ServeWire(st.rtWireLn) }()
		go func() { _ = st.rtHTTPSrv.Serve(st.rtHTTPLn) }()
		wireAddr, httpAddr = st.rtWireLn.Addr().String(), st.rtHTTPLn.Addr().String()
	}

	n := runtime.GOMAXPROCS(0)
	if w.open() {
		n = len(w.streams)
	}
	for i := 0; i < n; i++ {
		tenantID := ""
		if w.open() {
			tenantID = w.streams[i].tenant
		}
		var c *conn
		if w.json {
			c = dialJSON(httpAddr)
		} else if c, err = dialWire(wireAddr, tenantID, w.generate); err != nil {
			return st, err
		}
		st.conns = append(st.conns, c)
	}
	return st, nil
}

func (st *stack) close() {
	for _, c := range st.conns {
		c.close()
	}
	if st.rtHTTPSrv != nil {
		_ = st.rtHTTPSrv.Close()
	}
	if st.rt != nil {
		_ = st.rt.Close() // closes the router's wire listener
	}
	for _, s := range st.shards {
		s.close()
	}
}

// reply is what the harness reads off one answer, whichever protocol
// carried it. Server-side durations are in the cluster's modeled
// milliseconds (wall time / TimeScale).
type reply struct {
	seqLen    int
	label     string
	latencyMS float64
	queueMS   float64
	execMS    float64
	hops      int
	batchSize int
	outTokens int
	ttftMS    float64
	tpotMS    float64
}

// conn is one client connection and the call that sends a request on it.
type conn struct {
	send  func(ctx context.Context, text string, budget int) (reply, error)
	close func()
}

func fromInfer(r *serve.InferResponse) reply {
	return reply{
		seqLen: r.SequenceLength, label: r.Label,
		latencyMS: r.LatencyMS, queueMS: r.QueueMS, execMS: r.ExecMS,
		hops: r.DemotionHops, batchSize: r.BatchSize,
	}
}

func dialWire(addr, tenantID string, generate bool) (*conn, error) {
	wc, err := serve.DialWire(addr)
	if err != nil {
		return nil, err
	}
	wc.Tenant = tenantID
	c := &conn{close: func() { _ = wc.Close() }}
	if generate {
		c.send = func(ctx context.Context, text string, budget int) (reply, error) {
			r, err := wc.GenerateCtx(ctx, text, budget)
			if err != nil {
				return reply{}, err
			}
			return reply{
				seqLen: r.SequenceLength, label: r.Label,
				latencyMS: r.LatencyMS, queueMS: r.QueueMS, execMS: r.ExecMS,
				hops: r.DemotionHops, batchSize: r.BatchSize,
				outTokens: r.OutputTokens, ttftMS: r.TTFTMS, tpotMS: r.TPOTMS,
			}, nil
		}
		return c, nil
	}
	c.send = func(ctx context.Context, text string, _ int) (reply, error) {
		r, err := wc.InferCtx(ctx, text)
		if err != nil {
			return reply{}, err
		}
		return fromInfer(r), nil
	}
	return c, nil
}

// dialJSON gives the caller its own keep-alive HTTP connection.
func dialJSON(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	hc := &serve.Client{BaseURL: "http://" + addr, HTTPClient: &http.Client{Transport: tr}}
	return &conn{
		send: func(ctx context.Context, text string, _ int) (reply, error) {
			r, err := hc.InferCtx(ctx, text)
			if err != nil {
				return reply{}, err
			}
			return fromInfer(r), nil
		},
		close: tr.CloseIdleConnections,
	}
}

// typedRefusal reports whether err is the typed rate_limited refusal with
// a positive retry-after — the only error a workload here may see, and
// only for tenant noisy.
func typedRefusal(err error) bool {
	var api *serve.APIError
	return errors.As(err, &api) && api.Code == serve.CodeRateLimited && api.RetryAfter > 0
}

func (st *stack) describe() string {
	return fmt.Sprintf("allocation %v over runtimes %v", st.alloc, st.w.runtimes)
}
