package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/queue"
	"arlo/internal/ring"
	"arlo/internal/router"
	"arlo/internal/serve"
	"arlo/internal/tenant"
	"arlo/internal/wire"
)

// The serial layer drive: from one goroutine, so nothing contends, the
// same inputs the load used are pushed through each layer's exported
// functions, one span per call with the request's id as parent. Per
// request the calls nest as
//
//	socket (Client/WireClient over loopback TCP)
//	  net.unattributed   = socket - handler        kernel, loopback, scheduler, client
//	  handler (Server.ServeHTTP / ServeWire over an in-process pipe)
//	    serve self       = handler - its children below
//	    tokenizer.Encode
//	    wire codec       (wire path only)
//	    Ingress.SubmitCtx minus Span.Exec          ring + cluster + dispatch
//
// and the leaves, averaged over the typical requests, must add up to the
// socket-level p50.

// pipeListener hands ServeWire one in-process connection, so the wire
// loop can be timed without the kernel's TCP path.
type pipeListener struct {
	conn chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() (*pipeListener, net.Conn) {
	client, server := net.Pipe()
	l := &pipeListener{conn: make(chan net.Conn, 1), done: make(chan struct{})}
	l.conn <- server
	return l, client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// pipeClient is the minimal synchronous wire client the in-process
// handler measurement needs: one frame out, one frame back.
type pipeClient struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
	in  []byte
}

func (p *pipeClient) roundTrip(req *wire.Request) (wire.Response, error) {
	p.out = wire.AppendFrame(p.out[:0], wire.AppendRequest(p.in[:0], req))
	if _, err := p.c.Write(p.out); err != nil {
		return wire.Response{}, err
	}
	payload, buf, err := wire.ReadFrame(p.br, p.in)
	p.in = buf
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse(payload)
}

// discardWriter is the http.ResponseWriter of the in-process handler call.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// series collects one probe's per-request durations in nanoseconds.
type series map[string][]float64

func (s series) add(name string, d time.Duration) { s[name] = append(s[name], float64(d)) }

func (s series) p50us(name string) float64 { return median(s[name]) / 1e3 }

// typicalUS is the series' mean over the given requests, in microseconds.
func (s series) typicalUS(name string, requests []int) float64 {
	var sum float64
	for _, i := range requests {
		sum += s[name][i]
	}
	return sum / float64(len(requests)) / 1e3
}

// middleHalf returns the indices of the values between the quartiles.
func middleHalf(values []float64) []int {
	sorted := sortedCopy(values)
	lo, hi := quantile(sorted, 0.25), quantile(sorted, 0.75)
	var idx []int
	for i, v := range values {
		if v >= lo && v <= hi {
			idx = append(idx, i)
		}
	}
	return idx
}

// mallocsPer runs fn n times and returns heap allocations per call, the
// whole process's (idle background goroutines add a little noise).
func mallocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// nsPer times n calls of fn as a whole and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// driveLayers fills the T-sourced per-layer metrics. budget bounds the
// per-request part; the fixed-count microbenchmarks add well under a
// second.
func driveLayers(st *stack, in *inputs, tr *tracer, runStart time.Time, budget time.Duration, m map[string]float64) error {
	w, sh := st.w, st.shards[0]
	scale := w.timeScale
	ctx := context.Background()
	tenantID := ""
	if w.tenants {
		tenantID = victimID // unlimited bucket: the drive must never be refused
	}

	// Fresh connections of the harness's own, one per path.
	wireC, err := dialWire(sh.wireLn.Addr().String(), tenantID, w.generate)
	if err != nil {
		return err
	}
	defer wireC.close()
	var routedC *conn
	if w.routed {
		if routedC, err = dialWire(st.rtWireLn.Addr().String(), "", false); err != nil {
			return err
		}
		defer routedC.close()
	}
	htr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer htr.CloseIdleConnections()
	httpC := &serve.Client{BaseURL: "http://" + sh.httpLn.Addr().String(),
		HTTPClient: &http.Client{Transport: htr}, Tenant: tenantID}
	pl, pconn := newPipeListener()
	go func() { _ = sh.srv.ServeWire(pl) }()
	defer pconn.Close()
	pipe := &pipeClient{c: pconn, br: bufio.NewReader(pconn)}
	ing := cluster.NewIngress(sh.cl, cluster.IngressConfig{})
	defer ing.Close()

	path, body := "/v1/infer", func(p pooledText, _ int) ([]byte, error) {
		return json.Marshal(serve.InferRequest{Text: p.text})
	}
	if w.generate {
		path, body = "/v1/generate", func(p pooledText, budget int) ([]byte, error) {
			return json.Marshal(serve.GenerateRequest{Text: p.text, MaxNewTokens: budget})
		}
	}
	budgetOf := func(i int) int {
		if w.generate {
			return in.budgets[i%poolSize]
		}
		return 0
	}
	handler := func(i int) error {
		p := in.pool[i%poolSize]
		b, err := body(p, budgetOf(i))
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		if err != nil {
			return err
		}
		if tenantID != "" {
			req.Header.Set(serve.TenantHeader, tenantID)
		}
		dw := &discardWriter{h: make(http.Header), status: http.StatusOK}
		sh.srv.ServeHTTP(dw, req)
		if dw.status != http.StatusOK {
			return fmt.Errorf("in-process handler answered %d", dw.status)
		}
		return nil
	}
	wireReq := func(i int) *wire.Request {
		r := &wire.Request{Mode: wire.ModeText, Text: in.pool[i%poolSize].text}
		if w.generate {
			r.Kind, r.MaxNewTokens = wire.KindGenRequest, uint32(budgetOf(i))
		}
		if tenantID != "" { // the V2 frame revision carries the tenant
			r.Tenant, r.Kind = tenantID, wire.KindRequestV2
			if w.generate {
				r.Kind = wire.KindGenRequestV2
			}
		}
		return r
	}
	var codecBuf []byte
	codec := func(i int) error {
		req := wireReq(i)
		req.ID = uint64(i)
		codecBuf = wire.AppendRequest(codecBuf[:0], req)
		dreq, err := wire.DecodeRequest(codecBuf, nil)
		if err != nil {
			return err
		}
		resp := wire.Response{ID: dreq.ID, SeqLen: uint32(in.pool[i%poolSize].length), LatencyNS: 1, ExecNS: 1}
		if w.generate {
			resp.Kind, resp.OutTokens, resp.TTFTNS = wire.KindGenResponse, dreq.MaxNewTokens, 1
		}
		codecBuf = wire.AppendResponse(codecBuf[:0], &resp)
		_, err = wire.DecodeResponse(codecBuf)
		return err
	}
	creq := func(i int) cluster.Request {
		return cluster.Request{Length: in.pool[i%poolSize].length, MaxNewTokens: budgetOf(i), Tenant: tenantID}
	}
	// wallExec is the part of a round trip the emulated kernel took.
	wallExec := func(sp *obs.Span) time.Duration { return time.Duration(float64(sp.Exec) * scale) }

	ser := series{}
	at := func(t time.Time) time.Duration { return t.Sub(runStart) }
	// timed runs one probe, records its span under the request's root and
	// returns its duration.
	timed := func(root, id int64, name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.add(root, id, name, at(t0), at(t1))
		return t1.Sub(t0), err
	}

	deadline := time.Now().Add(budget)
	n := 0
	for i := 0; i < 2000 && time.Now().Before(deadline); i++ {
		p := in.pool[i%poolSize]
		id := int64(1)<<40 | int64(i) // apart from the load's request ids
		root := tr.add(0, id, "layers", at(time.Now()), 0)

		sWire, err := timed(root, id, "serve.wire_socket", func() error {
			_, err := wireC.send(ctx, p.text, budgetOf(i))
			return err
		})
		if err != nil {
			return fmt.Errorf("layer drive, wire socket: %w", err)
		}
		sHTTP, err := timed(root, id, "serve.http_socket", func() error {
			if w.generate {
				_, err := httpC.GenerateCtx(ctx, p.text, budgetOf(i))
				return err
			}
			_, err := httpC.InferCtx(ctx, p.text)
			return err
		})
		if err != nil {
			return fmt.Errorf("layer drive, http socket: %w", err)
		}
		hHTTP, err := timed(root, id, "serve.http_handler", func() error { return handler(i) })
		if err != nil {
			return fmt.Errorf("layer drive, http handler: %w", err)
		}
		hWire, err := timed(root, id, "serve.wire_handler", func() error {
			resp, err := pipe.roundTrip(wireReq(i))
			if err == nil && resp.Status != wire.StatusOK {
				err = errors.New(resp.Status.String())
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("layer drive, wire handler: %w", err)
		}
		tok, _ := timed(root, id, "tokenizer.encode", func() error {
			_ = st.tok.Encode(p.text, maxLength)
			return nil
		})
		cod, err := timed(root, id, "wire.codec", func() error { return codec(i) })
		if err != nil {
			return fmt.Errorf("layer drive, codec: %w", err)
		}
		var res cluster.Result
		sub, err := timed(root, id, "cluster.ingress_submit", func() error {
			var err error
			res, err = ing.SubmitCtx(ctx, creq(i))
			return err
		})
		if err != nil {
			return fmt.Errorf("layer drive, ingress submit: %w", err)
		}
		exec := wallExec(&res.Span)
		sub -= exec
		ser.add("cluster.ingress_wait", res.Span.IngressWait)
		ser.add("cluster.dispatch_span", res.Span.Dispatch)
		ser.add("cluster.form_wait", time.Duration(float64(res.Span.FormWait)*scale))
		direct, err := timed(root, id, "cluster.submit", func() error {
			var err error
			res, err = sh.cl.SubmitCtx(ctx, creq(i))
			return err
		})
		if err != nil {
			return fmt.Errorf("layer drive, submit: %w", err)
		}
		ser.add("cluster.submit", direct-wallExec(&res.Span))

		ser.add("serve.wire_socket", sWire)
		ser.add("serve.http_socket", sHTTP)
		ser.add("serve.http_handler", hHTTP)
		ser.add("tokenizer.encode", tok)
		ser.add("wire.codec", cod)
		ser.add("cluster.ingress_submit", sub)
		ser.add("exec", exec)
		ser.add("serve.http_self", hHTTP-exec-tok-sub)
		ser.add("serve.wire_self", hWire-exec-tok-cod-sub)
		ser.add("net.http", sHTTP-hHTTP)
		ser.add("net.wire", sWire-hWire)
		if routedC != nil {
			sRouted, err := timed(root, id, "router.socket", func() error {
				_, err := routedC.send(ctx, p.text, 0)
				return err
			})
			if err != nil {
				return fmt.Errorf("layer drive, routed socket: %w", err)
			}
			ser.add("router.hop", sRouted-sWire)
		}
		tr.end(root, at(time.Now()))
		n++
	}
	if n < 5 {
		return fmt.Errorf("layer drive: only %d requests fit the %v budget", n, budget)
	}

	// The workload's own transport decides which socket span is decomposed.
	socket, leaves := "serve.wire_socket", []string{"net.wire", "serve.wire_self", "tokenizer.encode", "wire.codec", "cluster.ingress_submit", "exec"}
	if w.json {
		socket, leaves = "serve.http_socket", []string{"net.http", "serve.http_self", "tokenizer.encode", "cluster.ingress_submit", "exec"}
	}
	// Every per-request figure is its mean over the typical requests: the
	// middle half by socket span. Per request the leaves add up to the
	// socket span exactly; medians taken leaf by leaf would not (each
	// leaf's tail is somewhere else), means over one set of requests do.
	// What is left to check is that this sum is the socket-level p50.
	typical := middleHalf(ser[socket])
	for _, name := range []string{"tokenizer.encode", "wire.codec", "serve.http_handler", "serve.http_socket",
		"serve.wire_socket", "serve.http_self", "serve.wire_self", "cluster.submit", "cluster.ingress_submit",
		"cluster.ingress_wait", "cluster.dispatch_span"} {
		m[name+"_us"] = ser.typicalUS(name, typical)
	}
	m["cluster.form_wait_ms"] = ser.typicalUS("cluster.form_wait", typical) / 1e3
	m["net.unattributed_us"] = ser.typicalUS(leaves[0], typical)
	var sum float64
	for _, l := range leaves {
		sum += ser.typicalUS(l, typical)
	}
	m["trace.layer_sum_share"] = sum / ser.p50us(socket)
	if w.routed {
		m["router.hop_us"] = ser.typicalUS("router.hop", typical)
	}

	// Allocation counts, each layer on its own.
	const allocN = 200
	m["tokenizer.allocs_per_op"] = mallocsPer(allocN, func(i int) { _ = st.tok.Encode(in.pool[i%poolSize].text, maxLength) })
	m["wire.allocs_per_op"] = mallocsPer(allocN, func(i int) { _ = codec(i) })
	if perCall := time.Duration(median(ser["serve.http_handler"])); perCall*allocN < budget {
		m["serve.http_handler_allocs"] = mallocsPer(allocN, func(i int) { _ = handler(i) })
	}
	if w.routed {
		viaRouter := mallocsPer(allocN, func(i int) { _, _ = routedC.send(ctx, in.pool[i%poolSize].text, 0) })
		directly := mallocsPer(allocN, func(i int) { _, _ = wireC.send(ctx, in.pool[i%poolSize].text, 0) })
		m["router.allocs_per_req"] = viaRouter - directly
		if err := routeStage(st, in, m); err != nil {
			return err
		}
	}
	if scale < 1 {
		// Grouped submission waits for every member's kernel, so it is only
		// a submit-path figure where compute is ~0.
		group := make([]cluster.Request, cluster.DefaultMaxGroup)
		m["cluster.submit_batch_ns_per_req"] = nsPer(100, func(g int) {
			for k := range group {
				group[k] = creq(g*len(group) + k)
			}
			sh.cl.SubmitBatch(ctx, group)
		}) / float64(len(group))
	}
	return microLayers(st, in, m)
}

// routeStage sends a few requests through the router's HTTP front end,
// the only reply that names the shard and the route stage.
func routeStage(st *stack, in *inputs, m map[string]float64) error {
	base := "http://" + st.rtHTTPLn.Addr().String()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var routeMS []float64
	for i := 0; i < 200; i++ {
		b, err := json.Marshal(serve.InferRequest{Text: in.pool[i].text})
		if err != nil {
			return err
		}
		resp, err := hc.Post(base+"/v1/infer", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		var out router.InferResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || out.Shard == "" || out.SequenceLength != in.pool[i].length {
			return fmt.Errorf("routed reply %d: status %d shard %q sequence_length %d (want %d)",
				i, resp.StatusCode, out.Shard, out.SequenceLength, in.pool[i].length)
		}
		routeMS = append(routeMS, out.RouteMS)
	}
	m["router.route_ms_p50"] = median(routeMS)
	return nil
}

// microLayers times the layers that are too small to see in one request:
// fixed-count loops over the layer's exported functions.
func microLayers(st *stack, in *inputs, m map[string]float64) error {
	const n = 100_000
	length := func(i int) int { return in.pool[i%poolSize].length }

	// The Fig. 9 path on a queue mirroring the workload's allocation.
	ml, err := queue.NewMultiLevel(st.profile.MaxLengths())
	if err != nil {
		return err
	}
	id := 0
	for level, count := range st.alloc {
		for k := 0; k < count; k++ {
			if err := ml.Add(queue.NewInstance(id, level, 0, st.profile.Runtimes[level].Capacity)); err != nil {
				return err
			}
			id++
		}
	}
	rs, err := dispatch.NewRequestScheduler(ml)
	if err != nil {
		return err
	}
	ctx := context.Background()
	decide := func(i int) {
		if inst, _, err := rs.DispatchCtx(ctx, length(i)); err == nil {
			ml.OnComplete(inst)
		}
	}
	m["dispatch.decide_ns"] = nsPer(n, decide)
	m["dispatch.allocs_per_op"] = mallocsPer(n, decide)

	r := ring.New[int](1, 1024)
	buf := make([]int, 0, 64)
	m["ring.enqueue_drain_ns"] = nsPer(n/64, func(int) {
		for k := 0; k < 64; k++ {
			r.Enqueue(k)
		}
		buf = r.Drain(0, buf[:0], 64)
	}) / 64

	fair := queue.NewFair[int]()
	keys := [2]string{victimID, noisyID}
	weights := [2]float64{8, 1}
	m["queue.fair_push_pop_ns"] = nsPer(n, func(i int) {
		fair.Push(keys[i&1], weights[i&1], float64(length(i)), i)
		fair.Pop()
	})

	reg, err := tenant.NewRegistry(tenant.Config{ID: victimID, SLOClass: "interactive", Weight: 8})
	if err != nil {
		return err
	}
	victim := reg.Get(victimID)
	m["tenant.admit_ns"] = nsPer(n, func(i int) { victim.Admit(length(i)) })

	rec := obs.NewRecorder(len(st.alloc))
	sp := obs.Span{Queue: time.Millisecond, Exec: time.Millisecond, Total: 2 * time.Millisecond}
	m["obs.record_span_ns"] = nsPer(n, func(i int) {
		sp.Length = length(i)
		rec.RecordSpan(&sp)
	})
	return nil
}
