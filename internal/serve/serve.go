// Package serve provides the HTTP serving front end standing in for the
// paper's Triton integration: a JSON inference endpoint that tokenizes the
// request text, dispatches it by sequence length through an Arlo-scheduled
// emulated cluster, and reports the measured latency decomposed the way
// the paper's evaluation does (queueing vs. execution, demotion hops).
// The classifier output itself is emulated (deterministic over the token
// ids) — the system under study is the scheduler, not the model.
//
// The package also holds the protocol front end itself (frontend.go,
// wire_serve.go): the /v1/infer + /v1/generate handlers and the binary
// frame listener are written once against a Backend, which Server
// implements over its cluster and router.Router over its shards.
//
// Endpoints. The first two, and the binary listener (ServeWire), are the
// Frontend's, so a router serves them too — same validation, statuses and
// envelope, plus route_ms/shard/hops on its OK replies; the rest are the
// server's own (a router has its own /healthz and /metrics):
//
//	POST /v1/infer   — classify text; errors use the versioned envelope
//	                   {"error":{"code":..., "message":...}}
//	POST /v1/generate — generate max_new_tokens tokens from a prompt;
//	                   reports TTFT/TPOT alongside the lifecycle span and
//	                   rejects unknown fields with unsupported_field
//	GET  /v1/tenants — list tenant configs; GET/PUT /v1/tenants/{id}
//	                   reads or live-updates one record (404 not_found on
//	                   clusters without a tenant registry)
//	GET  /v1/stats   — the recorder's books as JSON: served/rejected counts,
//	                   p50/p98 as the nearest-rank bucket's upper bound over
//	                   the recorder's window
//	GET  /v1/controller — live control-loop status (allocation, target,
//	                   demand, replans, replacements), only with
//	                   WithController; 404 not_found otherwise
//	GET  /metrics    — Prometheus text exposition of the cluster's
//	                   observability plane (counters, demotion matrix,
//	                   queue-depth gauges, instance health, latency
//	                   histograms)
//	GET  /healthz    — liveness + per-state instance counts; 503 once no
//	                   instance is serving
//	POST /v1/chaos/fail    — crash an instance, only with WithChaos()
//	POST /v1/chaos/slow    — degrade an instance, only with WithChaos()
//	POST /v1/chaos/restore — restore a degraded instance, only with WithChaos()
//	GET  /debug/pprof/* — runtime profiles, only with WithPprof()
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/obs"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

// InferRequest is the body of POST /v1/infer.
type InferRequest struct {
	// Text is the input to classify.
	Text string `json:"text"`
	// Tenant is the submitting tenant id. The X-Arlo-Tenant header takes
	// precedence; absent both, the request is accounted to the default
	// tenant. Ignored on clusters without a tenant registry.
	Tenant string `json:"tenant,omitempty"`
}

// InferResponse is the reply of POST /v1/infer. Beyond the label and
// end-to-end latency it carries the request's lifecycle span — the same
// per-request decomposition the paper's Figs. 8-10 are built from.
type InferResponse struct {
	// Label is the (emulated) classification.
	Label string `json:"label"`
	// SequenceLength is the tokenized input length Arlo dispatched on.
	SequenceLength int `json:"sequence_length"`
	// LatencyMS is the measured end-to-end serving latency in
	// milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// QueueMS is the time spent queued before execution started.
	QueueMS float64 `json:"queue_ms"`
	// ExecMS is the emulated kernel execution time.
	ExecMS float64 `json:"exec_ms"`
	// DemotionHops is how many runtime levels past its ideal (least
	// padding) level the request was pushed by congestion; 0 when served
	// at the ideal level.
	DemotionHops int `json:"demotion_hops"`
	// Instance is the ID of the instance that executed the request.
	Instance int `json:"instance"`
	// Runtime is the runtime level the request executed on.
	Runtime int `json:"runtime"`
	// Batch is the dynamic batch the request executed in (omitted when the
	// request ran sequentially); requests sharing a batch id rode the same
	// emulated kernel.
	Batch int64 `json:"batch,omitempty"`
	// BatchSize is how many requests shared that kernel (omitted when
	// unbatched).
	BatchSize int `json:"batch_size,omitempty"`
}

// ErrorBody is the inner object of the versioned error envelope.
type ErrorBody struct {
	// Code is a stable machine-readable error class: invalid_request,
	// unsupported_field, too_long, congested, no_instances, unavailable,
	// unserviceable, deadline_exceeded, method_not_allowed, internal,
	// rate_limited or not_found.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-2xx /v1/infer reply:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Stable error codes of the envelope. Those with a wire.Status twin are
// that status' String(), which is what writes them; the constants name the
// documented codes for clients, and the tests pin each to its twin.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeTooLong          = "too_long"
	CodeCongested        = "congested"
	CodeNoInstances      = "no_instances"
	CodeUnavailable      = "unavailable"
	CodeUnserviceable    = "unserviceable"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInternal         = "internal"
	CodeRateLimited      = "rate_limited"
	CodeNotFound         = "not_found"
)

// Stats is the reply of GET /v1/stats, read off the server's recorder — the
// same books /metrics and /v1/controller report from. Served is the
// recorder's completions; Rejected is everything that resolved to an error
// (rejections plus cancellations). P50MS and P98MS are the nearest-rank
// histogram bucket's upper bound (125 us * 2^k) over the recorder's window:
// 60 s by default, one control period when a controller sized it.
type Stats struct {
	Served    int64   `json:"served"`
	Rejected  int64   `json:"rejected"`
	Instances int     `json:"instances"`
	P50MS     float64 `json:"p50_ms"`
	P98MS     float64 `json:"p98_ms"`
}

// Server routes inference requests into a cluster: the Backend behind
// its embedded Frontend, plus the operator endpoints.
type Server struct {
	*Frontend
	tok        *tokenizer.Tokenizer
	cluster    *cluster.Cluster
	maxLen     int
	reqTimeout time.Duration
	pprof      bool
	chaos      bool
	rec        *obs.Recorder
	mux        *http.ServeMux

	// shard is the operator-assigned shard name (WithShardName); loadSeq
	// orders the load snapshots this server hands out.
	shard   string
	loadSeq atomic.Uint64

	// ingress, when configured with WithIngress, is the ring-fed submit
	// path both protocols dispatch through instead of per-request
	// Cluster.SubmitCtx.
	ingress    *cluster.Ingress
	ingressCfg *cluster.IngressConfig

	// ctrl, when attached with WithController, backs GET /v1/controller.
	// The server only reads status; the caller owns the loop's lifecycle.
	ctrl *controller.Controller
}

// Option configures a Server at construction.
type Option func(*Server) error

// WithMaxLength caps the encoded sequence length (the model's maximum
// input). Defaults to the cluster's largest deployed runtime length.
func WithMaxLength(n int) Option {
	return func(s *Server) error {
		if n < 2 {
			return fmt.Errorf("serve: max length must be >= 2, got %d", n)
		}
		s.maxLen = n
		return nil
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiles expose internals and cost CPU when scraped.
func WithPprof() Option {
	return func(s *Server) error {
		s.pprof = true
		return nil
	}
}

// WithChaos mounts the fault-injection endpoints (POST /v1/chaos/fail,
// /v1/chaos/slow, /v1/chaos/restore). Off by default: they crash real
// instances and belong only in test and demo deployments.
func WithChaos() Option {
	return func(s *Server) error {
		s.chaos = true
		return nil
	}
}

// WithIngress routes submissions through a cluster.Ingress (sharded
// submit rings drained in groups) instead of per-request SubmitCtx — the
// amortized hot path. The server owns the ingress; Close shuts it down.
func WithIngress(cfg cluster.IngressConfig) Option {
	return func(s *Server) error {
		s.ingressCfg = &cfg
		return nil
	}
}

// WithController attaches a control loop for GET /v1/controller, which
// reports the loop's live status (allocation, replan/replacement
// counters, autoscaler state). The server never starts or stops the
// loop — the caller owns its lifecycle. Without this option the endpoint
// answers 404 not_found.
func WithController(ctrl *controller.Controller) Option {
	return func(s *Server) error {
		if ctrl == nil {
			return fmt.Errorf("serve: nil controller")
		}
		s.ctrl = ctrl
		return nil
	}
}

// WithRequestTimeout bounds every inference request server-side: requests
// still queued when the timeout fires are dequeued and answered 504. The
// client's own context (disconnect, client-side deadline) is always
// honored regardless.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) error {
		if d <= 0 {
			return fmt.Errorf("serve: request timeout must be positive, got %v", d)
		}
		s.reqTimeout = d
		return nil
	}
}

// New wires a tokenizer and a running cluster into an HTTP handler.
func New(tok *tokenizer.Tokenizer, cl *cluster.Cluster, opts ...Option) (*Server, error) {
	if tok == nil {
		return nil, fmt.Errorf("serve: nil tokenizer")
	}
	if cl == nil {
		return nil, fmt.Errorf("serve: nil cluster")
	}
	s := &Server{
		tok:     tok,
		cluster: cl,
		maxLen:  cl.MaxLength(),
		rec:     cl.Recorder(),
		mux:     http.NewServeMux(),
	}
	s.Frontend = NewFrontend(s)
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.ingressCfg != nil {
		s.ingress = cluster.NewIngress(cl, *s.ingressCfg)
	}
	s.mux.HandleFunc("/v1/infer", s.HandleInfer)
	s.mux.HandleFunc("/v1/generate", s.HandleGenerate)
	s.mux.HandleFunc("/v1/tenants", s.handleTenants)
	s.mux.HandleFunc("/v1/tenants/", s.handleTenant)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/load", s.handleLoad)
	s.mux.HandleFunc("/v1/controller", s.handleController)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", s.rec.Handler())
	if s.chaos {
		s.mux.HandleFunc("/v1/chaos/fail", s.handleChaosFail)
		s.mux.HandleFunc("/v1/chaos/slow", s.handleChaosSlow)
		s.mux.HandleFunc("/v1/chaos/restore", s.handleChaosRestore)
	}
	if s.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Recorder returns the cluster's observability recorder, which backs
// /metrics and /v1/stats: the server's only record of what it served.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// submit dispatches one request through the configured path: the ring
// ingress when WithIngress was given, per-request SubmitCtx otherwise.
func (s *Server) submit(ctx context.Context, req cluster.Request) (cluster.Result, error) {
	if s.ingress != nil {
		return s.ingress.SubmitCtx(ctx, req)
	}
	return s.cluster.SubmitCtx(ctx, req)
}

// Close stops the wire listeners, drops accepted wire connections, and
// stops the ingress (when configured). The cluster itself stays up — the
// caller owns it. Idempotent.
func (s *Server) Close() error {
	_ = s.Frontend.Close()
	if s.ingress != nil {
		s.ingress.Close()
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Do implements Backend over the cluster: tokenize text (or clamp
// pre-encoded ids to the model maximum, mirroring the tokenizer's cap),
// classify, submit through the ring or directly under the server's
// request timeout, and build the reply (the cluster has already booked
// the outcome on the recorder) — a KindGenResponse with TTFT and the
// generated token count for a generative request.
func (s *Server) Do(ctx context.Context, req wire.Request) (wire.Response, Hop) {
	creq := cluster.Request{Tenant: req.Tenant}
	var label uint8
	if req.Mode == wire.ModeText {
		// Only the length and the label outlive the call, so the ids stay
		// in the tokenizer's pooled buffer.
		tokStart := time.Now()
		s.tok.Borrow(req.Text, s.maxLen, func(ids []uint32) {
			creq.Length, label = len(ids), classify(ids)
		})
		creq.Tokenize = time.Since(tokStart)
	} else {
		if len(req.Tokens) > s.maxLen {
			req.Tokens = req.Tokens[:s.maxLen]
		}
		creq.Length, label = len(req.Tokens), classify(req.Tokens)
	}
	if req.Gen() {
		creq.MaxNewTokens = int(req.MaxNewTokens)
	}
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	res, err := s.submit(ctx, creq)
	if err != nil {
		return wire.Response{
			Status:       wireStatus(err),
			Message:      err.Error(),
			RetryAfterNS: uint64(retryAfterOf(err)),
		}, Hop{}
	}
	resp := wire.Response{
		Label:        label,
		SeqLen:       uint32(creq.Length),
		LatencyNS:    uint64(res.Latency),
		QueueNS:      uint64(res.Span.Queue),
		ExecNS:       uint64(res.Span.Exec),
		DemotionHops: uint16(res.Span.DemotionHops()),
		Instance:     uint32(res.Span.Instance),
		Runtime:      uint32(res.Span.Level),
		Batch:        res.Span.Batch,
		BatchSize:    uint32(res.Span.BatchSize),
	}
	if req.Gen() {
		resp.Kind = wire.KindGenResponse
		resp.TTFTNS = uint64(res.Span.TTFT)
		resp.OutTokens = uint32(res.Span.OutTokens)
	}
	return resp, Hop{}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	now := time.Now()
	writeJSON(w, Stats{
		Served:    s.rec.Completed(),
		Rejected:  s.rec.Rejected() + s.rec.Cancelled(),
		Instances: s.cluster.Instances(),
		P50MS:     float64(s.rec.QuantileAt(0.50, now)) / float64(time.Millisecond),
		P98MS:     float64(s.rec.QuantileAt(0.98, now)) / float64(time.Millisecond),
	})
}

// handleController reports the attached control loop's status
// (controller.Status) — the live view of the closed loop: current vs.
// target allocation, observed demand and p98, replan/replacement
// counters and autoscaler activity.
func (s *Server) handleController(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.ctrl == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no controller attached")
		return
	}
	writeJSON(w, s.ctrl.Status())
}

// HealthResponse is the body of GET /healthz: overall status, per-state
// instance counts, and each instance's serving state — the same split
// the arlo_instance_health gauge exports, so routers and operators read
// one source of truth.
type HealthResponse struct {
	// Status is "ok" while at least one instance is serving (healthy or
	// degraded), "unavailable" otherwise.
	Status string `json:"status"`
	obs.HealthSummary
	// Shard is the operator-assigned shard name (omitted when unnamed).
	Shard string `json:"shard,omitempty"`
	// Instances is each instance's serving state, sorted by ID.
	Instances []HealthInstance `json:"instances"`
}

// HealthInstance is one instance's serving state in HealthResponse.
type HealthInstance struct {
	ID      int    `json:"id"`
	Runtime int    `json:"runtime"`
	State   string `json:"state"`
	// SlowFactor is the degraded-mode execution multiplier (omitted when
	// 1, i.e. healthy; 0 means dead).
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.cluster.Snapshot()
	sum := snap.Health()
	resp := HealthResponse{
		Status:        "ok",
		HealthSummary: sum,
		Shard:         s.shard,
		Instances:     make([]HealthInstance, 0, len(snap.Instances)),
	}
	for _, in := range snap.Instances {
		info := HealthInstance{ID: in.ID, Runtime: in.Runtime, State: in.Health.String()}
		if in.SlowFactor != 1 {
			info.SlowFactor = in.SlowFactor
		}
		resp.Instances = append(resp.Instances, info)
	}
	status := http.StatusOK
	if sum.Healthy+sum.Degraded == 0 {
		// Every instance is down: the server cannot serve a single
		// request, which load balancers should see as not-ready.
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// ChaosFailRequest is the body of POST /v1/chaos/fail.
type ChaosFailRequest struct {
	// Runtime selects which runtime loses its most loaded instance; -1
	// picks the most loaded instance cluster-wide.
	Runtime int `json:"runtime"`
	// DowntimeMS is how long the instance stays down before rejoining;
	// 0 or negative keeps it down for the rest of the run.
	DowntimeMS float64 `json:"downtime_ms"`
}

// ChaosSlowRequest is the body of POST /v1/chaos/slow.
type ChaosSlowRequest struct {
	Runtime int `json:"runtime"`
	// Factor multiplies the instance's emulated execution latency.
	Factor float64 `json:"factor"`
}

// ChaosRestoreRequest is the body of POST /v1/chaos/restore.
type ChaosRestoreRequest struct {
	Instance int `json:"instance"`
}

// ChaosResponse acknowledges a chaos action with the affected instance.
type ChaosResponse struct {
	Instance int `json:"instance"`
}

// decodeChaos reads a chaos endpoint's POST body into v, writing the
// envelope error itself on failure.
func decodeChaos(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "read error")
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid JSON")
		return false
	}
	return true
}

func (s *Server) handleChaosFail(w http.ResponseWriter, r *http.Request) {
	var req ChaosFailRequest
	if !decodeChaos(w, r, &req) {
		return
	}
	downtime := time.Duration(req.DowntimeMS * float64(time.Millisecond))
	id, err := s.cluster.FailInstance(req.Runtime, downtime)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	writeJSON(w, ChaosResponse{Instance: id})
}

func (s *Server) handleChaosSlow(w http.ResponseWriter, r *http.Request) {
	var req ChaosSlowRequest
	if !decodeChaos(w, r, &req) {
		return
	}
	id, err := s.cluster.SlowInstance(req.Runtime, req.Factor)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	writeJSON(w, ChaosResponse{Instance: id})
}

func (s *Server) handleChaosRestore(w http.ResponseWriter, r *http.Request) {
	var req ChaosRestoreRequest
	if !decodeChaos(w, r, &req) {
		return
	}
	if err := s.cluster.RestoreInstance(req.Instance); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	writeJSON(w, ChaosResponse{Instance: req.Instance})
}
