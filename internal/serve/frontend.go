// The protocol front end, written once. Both protocols — the JSON
// /v1/infer + /v1/generate surface here, the binary frame surface in
// wire_serve.go — decode and validate a request, hand it to a Backend as
// a wire.Request, and render the wire.Response it answers with:
//
//	surface (JSON body | frame) → wire.Request → Backend.Do → wire.Response → reply
//
// Two types implement Backend: Server (a cluster behind it) and
// router.Router (shards behind it). Both embed the Frontend, so what a
// client sees — validation, status codes, the error envelope,
// Retry-After, frame handling — is the same code whichever it talks to;
// a router's replies differ only by the route fields a Hop adds.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/wire"
)

// Backend serves one decoded, validated request: text is non-empty (or
// the token list is), a generative budget is in range, and ctx carries
// the request's deadline. The reply's ID is the front end's to set. The
// request is passed by value so the interface call does not move it to
// the heap.
type Backend interface {
	Do(ctx context.Context, req wire.Request) (wire.Response, Hop)
}

// Hop is what a forwarding backend reports about the route a served
// reply took; a backend that serves requests itself returns the zero Hop.
type Hop struct {
	// Shard names the shard that answered ("" = no hop was taken).
	Shard string
	// Hops is how many reroute hops preceded the successful forward.
	Hops int
	// Route is the time spent choosing a shard, failed hops included,
	// before the successful forward began.
	Route time.Duration
}

// loadReporter is the optional half of a backend: one that can build a
// load snapshot has its wire listener answer load probes.
type loadReporter interface {
	LoadSnapshot() wire.LoadSnapshot
}

// Frontend is the protocol surface in front of a Backend: the
// /v1/infer and /v1/generate handlers and the binary listener.
type Frontend struct {
	backend Backend
	// load answers wire load probes; nil when the backend cannot build a
	// snapshot, and the probe is then an unknown frame kind like any other.
	load loadReporter

	// closing gates the wire accept loops; listeners holds every listener
	// handed to ServeWire so Close can unblock them, and conns every
	// accepted wire connection so Close drops in-flight peers too (a
	// killed shard must look dead to its routers, not merely stop
	// accepting new dials).
	closing   atomic.Bool
	listMu    sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
}

// NewFrontend returns the protocol surface serving b.
func NewFrontend(b Backend) *Frontend {
	f := &Frontend{backend: b}
	f.load, _ = b.(loadReporter)
	return f
}

// invalid names what is wrong with a decoded request, "" when a backend
// may see it — the checks both protocols make. budget is the request's
// max_new_tokens before narrowing to the frame's u32. Each surface calls
// it before the backend rather than through a shared wrapper around
// Backend.Do: the wire surface runs one short-lived goroutine per
// request, and a stack level there is paid in stack growth per request.
func invalid(req *wire.Request, budget int64) string {
	switch {
	case req.Mode == wire.ModeText && req.Text == "":
		return "empty text"
	case req.Mode == wire.ModeTokens && len(req.Tokens) == 0:
		return "empty token ids"
	case req.Gen() && (budget < 1 || budget > MaxNewTokensLimit):
		return fmt.Sprintf("max_new_tokens must be in [1, %d], got %d", MaxNewTokensLimit, budget)
	}
	return ""
}

// serveJSON runs one decoded JSON request: validate, call the backend,
// and answer a non-OK reply itself — an OK one is the caller's to encode.
func (f *Frontend) serveJSON(w http.ResponseWriter, r *http.Request, req wire.Request, budget int64) (resp wire.Response, hop Hop) {
	if msg := invalid(&req, budget); msg != "" {
		resp = wire.Response{Status: wire.StatusInvalid, Message: msg}
	} else {
		resp, hop = f.backend.Do(r.Context(), req)
	}
	if resp.Status != wire.StatusOK {
		writeStatus(w, &resp)
	}
	return resp, hop
}

// bufPool recycles the request-read buffers of the JSON path and encPool
// its response-encode buffers, so steady-state serving does not grow one
// garbage buffer pair per request.
var (
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	encPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 512)
		return &b
	}}
)

// readBody reads a POST body into a pooled buffer the caller returns to
// bufPool; on a wrong method or a failed read it answers the request
// itself and returns nil.
func readBody(w http.ResponseWriter, r *http.Request) *bytes.Buffer {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return nil
	}
	rb := bufPool.Get().(*bytes.Buffer)
	rb.Reset()
	if _, err := rb.ReadFrom(io.LimitReader(r.Body, 1<<20)); err != nil {
		bufPool.Put(rb)
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "read error")
		return nil
	}
	return rb
}

// HandleInfer serves POST /v1/infer. The decode is lenient: unknown
// fields are ignored for compatibility with older clients.
func (f *Frontend) HandleInfer(w http.ResponseWriter, r *http.Request) {
	rb := readBody(w, r)
	if rb == nil {
		return
	}
	defer bufPool.Put(rb)
	var req InferRequest
	if err := json.Unmarshal(rb.Bytes(), &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid JSON")
		return
	}
	resp, hop := f.serveJSON(w, r,
		wire.Request{Mode: wire.ModeText, Text: req.Text, Tenant: tenantOf(r, req.Tenant)}, 0)
	if resp.Status != wire.StatusOK {
		return
	}
	// Hand-rolled encode on a pooled buffer: every field is a number or
	// one of three fixed labels, so reflection-based marshalling buys
	// nothing but allocations here.
	out := inferResponse(&resp)
	bp := encPool.Get().(*[]byte)
	b := appendHop(appendInferResponse((*bp)[:0], &out), hop)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
	*bp = b[:0] // keep any grown capacity with the pool
	encPool.Put(bp)
}

// HandleGenerate serves POST /v1/generate. Unlike /v1/infer the decode
// is strict: a generation parameter silently ignored (a sampling knob
// the server does not implement, a typo'd field) would change what the
// caller gets back, so an unknown field is unsupported_field.
func (f *Frontend) HandleGenerate(w http.ResponseWriter, r *http.Request) {
	rb := readBody(w, r)
	if rb == nil {
		return
	}
	defer bufPool.Put(rb)
	var req GenerateRequest
	if err := decodeStrict(rb.Bytes(), &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	resp, hop := f.serveJSON(w, r, wire.Request{
		Kind:         wire.KindGenRequest,
		Mode:         wire.ModeText,
		Text:         req.Text,
		MaxNewTokens: uint32(req.MaxNewTokens),
		Tenant:       tenantOf(r, req.Tenant),
	}, int64(req.MaxNewTokens))
	if resp.Status != wire.StatusOK {
		return
	}
	b, _ := json.Marshal(generateResponse(&resp)) // strings and finite numbers: cannot fail
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(appendHop(append(b, '\n'), hop))
}

// decodeStrict unmarshals a JSON body, rejecting unknown fields with
// ErrUnsupportedField (carrying the offending field name) and malformed
// JSON with a plain error.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return fmt.Errorf("%w: %v", ErrUnsupportedField, err)
		}
		return err
	}
	// Trailing garbage after the object is malformed too.
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// writeDecodeError answers a decodeStrict failure: an unknown field is
// the versioning rejection and names the field, anything else is a
// malformed body.
func writeDecodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrUnsupportedField) {
		writeError(w, http.StatusBadRequest, CodeUnsupportedField, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid JSON")
}

// tenantOf resolves a request's tenant id: header first, body field
// second, empty (→ default tenant) otherwise.
func tenantOf(r *http.Request, bodyTenant string) string {
	if h := r.Header.Get(TenantHeader); h != "" {
		return h
	}
	return bodyTenant
}

// wireStatus is the one error → status table: every dispatch-path
// sentinel's wire status, from which its HTTP status (wireHTTPStatus) and
// envelope code (Status.String) follow. Transient conditions land on 503
// so clients retry; a spent deadline lands on 504 so they do not.
func wireStatus(err error) wire.Status {
	switch {
	case errors.Is(err, ErrUnsupportedField):
		return wire.StatusUnsupportedField
	case errors.Is(err, dispatch.ErrTooLong):
		return wire.StatusTooLong
	case errors.Is(err, cluster.ErrDeadlineExceeded):
		return wire.StatusDeadline
	case errors.Is(err, cluster.ErrUnserviceable):
		// The requeue budget is bounded, not the outage: once instances
		// rejoin a retry can succeed, so keep it in the retryable family.
		return wire.StatusUnserviceable
	case errors.Is(err, cluster.ErrCongested):
		return wire.StatusCongested
	case errors.Is(err, dispatch.ErrNoInstances):
		return wire.StatusNoInstances
	case errors.Is(err, cluster.ErrClusterClosed):
		return wire.StatusUnavailable
	case errors.Is(err, ErrRateLimited):
		return wire.StatusRateLimited
	default:
		return wire.StatusInternal
	}
}

// wireHTTPStatus maps a status onto the HTTP status of its JSON reply —
// also what a WireClient's APIError carries, keeping its semantics
// (retryable checks, logging) protocol-independent.
func wireHTTPStatus(s wire.Status) int {
	switch s {
	case wire.StatusInvalid, wire.StatusUnsupportedField:
		return http.StatusBadRequest
	case wire.StatusTooLong:
		return http.StatusRequestEntityTooLarge
	case wire.StatusDeadline:
		return http.StatusGatewayTimeout
	case wire.StatusCongested, wire.StatusNoInstances, wire.StatusUnavailable, wire.StatusUnserviceable:
		return http.StatusServiceUnavailable
	case wire.StatusRateLimited:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// writeStatus renders a non-OK reply as the error envelope: the status'
// HTTP twin and stable code, the backend's message, and on a rate-limited
// reply the Retry-After header (whole seconds, rounded up) so well-behaved
// clients back off by the bucket's actual refill horizon.
func writeStatus(w http.ResponseWriter, resp *wire.Response) {
	if resp.Status == wire.StatusRateLimited && resp.RetryAfterNS > 0 {
		secs := math.Ceil(time.Duration(resp.RetryAfterNS).Seconds())
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	writeError(w, wireHTTPStatus(resp.Status), resp.Status.String(), resp.Message)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// inferLabels are the emulated classifier's output classes; wire
// responses carry the index, JSON responses the string.
var inferLabels = [3]string{"negative", "neutral", "positive"}

// classify is the emulated discriminative head: a deterministic label
// index over the token ids (FNV-style fold), standing in for BERT's
// classifier. Two identical inputs always classify identically, whether
// they arrived as text or as pre-encoded ids.
func classify(ids []uint32) uint8 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return uint8(h % uint64(len(inferLabels)))
}

func ms(ns uint64) float64 { return float64(ns) / float64(time.Millisecond) }

// inferResponse is the one wire.Response → InferResponse conversion.
func inferResponse(r *wire.Response) InferResponse {
	out := InferResponse{
		SequenceLength: int(r.SeqLen),
		LatencyMS:      ms(r.LatencyNS),
		QueueMS:        ms(r.QueueNS),
		ExecMS:         ms(r.ExecNS),
		DemotionHops:   int(r.DemotionHops),
		Instance:       int(r.Instance),
		Runtime:        int(r.Runtime),
		Batch:          r.Batch,
		BatchSize:      int(r.BatchSize),
	}
	if int(r.Label) < len(inferLabels) {
		out.Label = inferLabels[r.Label]
	}
	return out
}

// generateResponse is the one wire.Response → GenerateResponse
// conversion. TPOT follows obs.Span.TPOT on every path: whole
// nanoseconds per token after the first, 0 without a first-token time.
func generateResponse(r *wire.Response) GenerateResponse {
	in := inferResponse(r)
	out := GenerateResponse{
		Label:          in.Label,
		SequenceLength: in.SequenceLength,
		OutputTokens:   int(r.OutTokens),
		TTFTMS:         ms(r.TTFTNS),
		LatencyMS:      in.LatencyMS,
		QueueMS:        in.QueueMS,
		ExecMS:         in.ExecMS,
		DemotionHops:   in.DemotionHops,
		Instance:       in.Instance,
		Runtime:        in.Runtime,
		Batch:          in.Batch,
		BatchSize:      in.BatchSize,
	}
	if r.OutTokens > 1 && r.TTFTNS > 0 && r.LatencyNS > r.TTFTNS {
		out.TPOTMS = ms((r.LatencyNS - r.TTFTNS) / uint64(r.OutTokens-1))
	}
	return out
}

// appendInferResponse encodes an InferResponse as the exact JSON
// encoding/json would produce for it (field order, omitempty pair).
func appendInferResponse(dst []byte, r *InferResponse) []byte {
	dst = append(dst, `{"label":"`...)
	dst = append(dst, r.Label...)
	dst = append(dst, `","sequence_length":`...)
	dst = strconv.AppendInt(dst, int64(r.SequenceLength), 10)
	dst = append(dst, `,"latency_ms":`...)
	dst = appendJSONFloat(dst, r.LatencyMS)
	dst = append(dst, `,"queue_ms":`...)
	dst = appendJSONFloat(dst, r.QueueMS)
	dst = append(dst, `,"exec_ms":`...)
	dst = appendJSONFloat(dst, r.ExecMS)
	dst = append(dst, `,"demotion_hops":`...)
	dst = strconv.AppendInt(dst, int64(r.DemotionHops), 10)
	dst = append(dst, `,"instance":`...)
	dst = strconv.AppendInt(dst, int64(r.Instance), 10)
	dst = append(dst, `,"runtime":`...)
	dst = strconv.AppendInt(dst, int64(r.Runtime), 10)
	if r.Batch != 0 {
		dst = append(dst, `,"batch":`...)
		dst = strconv.AppendInt(dst, r.Batch, 10)
	}
	if r.BatchSize != 0 {
		dst = append(dst, `,"batch_size":`...)
		dst = strconv.AppendInt(dst, int64(r.BatchSize), 10)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// appendHop splices the route fields (route_ms, shard, hops when nonzero)
// into an encoded reply object ending "}\n" — only when the backend
// reported a hop, so a server's own replies keep their bytes. The shard
// name is operator input and is escaped as encoding/json would.
func appendHop(dst []byte, h Hop) []byte {
	if h.Shard == "" {
		return dst
	}
	shard, _ := json.Marshal(h.Shard) // a string cannot fail to marshal
	dst = append(dst[:len(dst)-2], `,"route_ms":`...)
	dst = appendJSONFloat(dst, ms(uint64(h.Route)))
	dst = append(dst, `,"shard":`...)
	dst = append(dst, shard...)
	if h.Hops != 0 {
		dst = append(dst, `,"hops":`...)
		dst = strconv.AppendInt(dst, int64(h.Hops), 10)
	}
	return append(dst, '}', '\n')
}

// appendJSONFloat matches encoding/json's float formatting (shortest
// round-trip form, 'e' only for extreme exponents).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	fmtByte := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmtByte = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmtByte, -1, 64)
	if fmtByte == 'e' {
		// encoding/json cleans e-09 up to e-9; match it byte for byte.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
