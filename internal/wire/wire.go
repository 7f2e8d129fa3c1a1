// Package wire is the binary ingress protocol: length-prefixed frames
// multiplexed over one connection, built to keep the serving hot path off
// the JSON/HTTP tax (header parsing, escaping, per-request allocations,
// one connection churn per in-flight request).
//
// Framing (all integers little-endian):
//
//	u32 payload length | payload
//
// Request payload:
//
//	u8 kind=1 | u64 id | i64 deadline (unix nanos, 0 = none) | u8 mode |
//	  mode 0 (raw text):  UTF-8 bytes to tokenize server-side
//	  mode 1 (token ids): u32 count | count x u32 ids pre-encoded client-side
//
// Response payload:
//
//	u8 kind=2 | u64 id | u8 status |
//	  status 0 (ok):   u8 label | u32 seq_len | u64 latency_ns |
//	                   u64 queue_ns | u64 exec_ns | u16 demotion_hops |
//	                   u32 instance | u32 runtime | i64 batch | u32 batch_size
//	  status != 0:     UTF-8 error message
//
// Generative request payload (kind=3) is the request payload with the
// generation parameters between the mode byte and the body:
//
//	u8 kind=3 | u64 id | i64 deadline | u8 mode | u32 max_new_tokens | body
//
// Generative response payload (kind=4) is the response payload with the
// generative timings appended to the ok block:
//
//	... u32 batch_size | u64 ttft_ns | u32 out_tokens
//
// V2 request payloads (kinds 5 and 6) are the frame revision that carries
// tenant identity. A version byte follows the kind so the revision can
// grow again without new kinds, then the V1 header fields, then the
// tenant id length-prefixed with one byte, then the body:
//
//	u8 kind=5|6 | u8 ver=2 | u64 id | i64 deadline | u8 mode |
//	  [u32 max_new_tokens when kind=6] | u8 tenant_len | tenant | body
//
// V1 request frames (kinds 1 and 3) still decode byte-for-byte — an old
// client never has to change; servers predating V2 answer the unknown
// kinds with StatusUnsupportedField, which V2 clients can detect. The
// encoder derives the revision from the fields: a Request with a Tenant
// encodes as the V2 twin of its kind, one without keeps the kind it was
// given, so no sender carries an upgrade switch and a tenant is never
// dropped silently.
//
// Decoded values own their memory: DecodeRequest, DecodeResponse and
// DecodeLoadSnapshot copy every string and decode token ids into a fresh
// slice, so a read loop may reuse its frame buffer while the request is
// still in flight on another goroutine.
// Rate-limited responses (StatusRateLimited) carry a retry hint before
// the error message:
//
//	u8 kind=2 | u64 id | u8 status=10 | u64 retry_after_ns | message
//
// Ids are chosen by the client and echoed verbatim, so responses may
// return out of submission order and clients can pipeline: many requests
// in flight on one connection, matched by id on the way back. The u32
// length prefix is bounded by MaxFrame on both sides; a peer that sends a
// longer frame is protocol-broken and the connection is dropped rather
// than resynchronized.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame kinds (first payload byte).
const (
	KindRequest  = 1
	KindResponse = 2
	// KindGenRequest is a generative request: KindRequest plus generation
	// parameters (max_new_tokens).
	KindGenRequest = 3
	// KindGenResponse is a generative reply: KindResponse plus TTFT and
	// the generated token count.
	KindGenResponse = 4
	// KindRequestV2 is the tenant-carrying frame revision of KindRequest:
	// a version byte follows the kind, and the tenant id precedes the body.
	KindRequestV2 = 5
	// KindGenRequestV2 is the tenant-carrying revision of KindGenRequest.
	KindGenRequestV2 = 6
)

// FrameVersion is the version byte V2 request frames carry after the
// kind.
const FrameVersion = 2

// Request modes.
const (
	// ModeText carries raw text the server tokenizes.
	ModeText = 0
	// ModeTokens carries token ids pre-encoded client-side; the server
	// skips tokenization entirely.
	ModeTokens = 1
)

// MaxFrame bounds a frame payload (matches the JSON endpoint's 1 MiB
// request cap). ReadFrame rejects longer frames before buffering them.
const MaxFrame = 1 << 20

// Status is the response outcome: StatusOK or the binary twin of the JSON
// envelope's stable error code.
type Status uint8

// Response statuses. The numeric values are wire format — append only.
const (
	StatusOK Status = iota
	StatusInvalid
	StatusTooLong
	StatusCongested
	StatusNoInstances
	StatusUnavailable
	StatusUnserviceable
	StatusDeadline
	StatusInternal
	// StatusUnsupportedField rejects a request carrying a field or frame
	// variant the server does not implement.
	StatusUnsupportedField
	// StatusRateLimited rejects a request refused by tenant token-bucket
	// admission; the response carries a retry_after_ns hint before the
	// message. The JSON twin is HTTP 429 + Retry-After.
	StatusRateLimited
	numStatuses
)

// String returns the JSON envelope's stable code for the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalid:
		return "invalid_request"
	case StatusTooLong:
		return "too_long"
	case StatusCongested:
		return "congested"
	case StatusNoInstances:
		return "no_instances"
	case StatusUnavailable:
		return "unavailable"
	case StatusUnserviceable:
		return "unserviceable"
	case StatusDeadline:
		return "deadline_exceeded"
	case StatusInternal:
		return "internal"
	case StatusUnsupportedField:
		return "unsupported_field"
	case StatusRateLimited:
		return "rate_limited"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Request is one decoded inference request.
type Request struct {
	// Kind is one of the four request kinds; 0 encodes as KindRequest.
	Kind uint8
	// ID is the client-chosen multiplexing id, echoed on the response.
	ID uint64
	// Deadline is the request deadline in unix nanoseconds (0 = none).
	Deadline int64
	// Mode is ModeText or ModeTokens.
	Mode uint8
	// MaxNewTokens is the generative output budget (Gen requests only).
	MaxNewTokens uint32
	// Text is the input to tokenize (ModeText).
	Text string
	// Tokens are the pre-encoded token ids (ModeTokens).
	Tokens []uint32
	// Tenant is the submitting tenant id (at most 255 bytes on the wire).
	// A non-empty Tenant encodes as the V2 twin of Kind.
	Tenant string
}

// Gen reports whether the request is generative (either frame revision).
func (r *Request) Gen() bool { return r.Kind == KindGenRequest || r.Kind == KindGenRequestV2 }

// Response is one decoded inference reply; the fields mirror the JSON
// InferResponse with durations in nanoseconds.
type Response struct {
	// Kind is KindResponse or KindGenResponse; 0 encodes as KindResponse.
	Kind         uint8
	ID           uint64
	Status       Status
	Label        uint8
	SeqLen       uint32
	LatencyNS    uint64
	QueueNS      uint64
	ExecNS       uint64
	DemotionHops uint16
	Instance     uint32
	Runtime      uint32
	Batch        int64
	BatchSize    uint32
	// TTFTNS and OutTokens are the generative timings (KindGenResponse
	// only): time to first token and generated token count.
	TTFTNS    uint64
	OutTokens uint32
	// RetryAfterNS is the admission retry hint (StatusRateLimited only).
	RetryAfterNS uint64
	// Message is the error detail when Status != StatusOK.
	Message string
}

// Decode errors. ErrFrameTooLarge aborts the connection (the stream
// cannot be resynchronized); the others are per-frame.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrShortPayload  = errors.New("wire: truncated payload")
	ErrBadKind       = errors.New("wire: unexpected frame kind")
	ErrBadMode       = errors.New("wire: unknown request mode")
	ErrBadStatus     = errors.New("wire: unknown response status")
	ErrBadVersion    = errors.New("wire: unknown frame version")
)

const (
	reqHeaderLen     = 1 + 8 + 8 + 1     // kind, id, deadline, mode
	reqV2HeaderLen   = 1 + 1 + 8 + 8 + 1 // kind, version, id, deadline, mode
	respHeaderLen    = 1 + 8 + 1         // kind, id, status
	respOKLen        = respHeaderLen + 1 + 4 + 8 + 8 + 8 + 2 + 4 + 4 + 8 + 4
	genRespOKLen     = respOKLen + 8 + 4
	genRespTrailerAt = respOKLen // offset of ttft_ns in a gen ok payload
)

// AppendFrame appends the length prefix and payload to dst. Use with a
// payload built by AppendRequest/AppendResponse on a reused buffer, then
// write dst in one syscall.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed payload into buf (grown as needed)
// and returns the payload slice, valid until the next call with the same
// buffer. io.EOF is returned bare only on a clean frame boundary.
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	return buf, buf, nil
}

// AppendRequest appends the encoded request payload (no length prefix).
// Kind 0 encodes as KindRequest; a generative kind adds the generation
// parameters; a non-empty Tenant encodes as the V2 twin of the kind (an
// explicit V2 kind stays V2 with an empty tenant).
func AppendRequest(dst []byte, r *Request) []byte {
	kind := r.Kind
	if kind == 0 {
		kind = KindRequest
	}
	if r.Tenant != "" {
		switch kind {
		case KindRequest:
			kind = KindRequestV2
		case KindGenRequest:
			kind = KindGenRequestV2
		}
	}
	v2 := kind == KindRequestV2 || kind == KindGenRequestV2
	dst = append(dst, kind)
	if v2 {
		dst = append(dst, FrameVersion)
	}
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Deadline))
	dst = append(dst, r.Mode)
	if r.Gen() {
		dst = binary.LittleEndian.AppendUint32(dst, r.MaxNewTokens)
	}
	if v2 {
		tenant := r.Tenant
		if len(tenant) > 255 {
			tenant = tenant[:255] // the length prefix is one byte
		}
		dst = append(dst, uint8(len(tenant)))
		dst = append(dst, tenant...)
	}
	switch r.Mode {
	case ModeTokens:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Tokens)))
		for _, id := range r.Tokens {
			dst = binary.LittleEndian.AppendUint32(dst, id)
		}
	default:
		dst = append(dst, r.Text...)
	}
	return dst
}

// DecodeRequest parses a request payload. The returned Request owns its
// memory — Text and Tenant are copied out of p and Tokens decode into
// tokens[:0] (a fresh slice when tokens is nil) — so p may be reused while
// the request is still in flight.
func DecodeRequest(p []byte, tokens []uint32) (Request, error) {
	var r Request
	if len(p) < reqHeaderLen {
		return r, ErrShortPayload
	}
	// The revisions share the id, deadline and mode that end the header;
	// V2 adds a version byte after the kind and a tenant before the body.
	hdr := reqHeaderLen
	switch p[0] {
	case KindRequest, KindGenRequest:
	case KindRequestV2, KindGenRequestV2:
		if len(p) < reqV2HeaderLen {
			return r, ErrShortPayload
		}
		if p[1] != FrameVersion {
			return r, ErrBadVersion
		}
		hdr = reqV2HeaderLen
	default:
		return r, ErrBadKind
	}
	r.Kind = p[0]
	fixed := p[hdr-17 : hdr] // u64 id | i64 deadline | u8 mode
	r.ID = binary.LittleEndian.Uint64(fixed)
	r.Deadline = int64(binary.LittleEndian.Uint64(fixed[8:]))
	r.Mode = fixed[16]
	body := p[hdr:]
	if r.Gen() {
		if len(body) < 4 {
			return r, ErrShortPayload
		}
		r.MaxNewTokens = binary.LittleEndian.Uint32(body)
		body = body[4:]
	}
	if hdr == reqV2HeaderLen {
		if len(body) < 1 {
			return r, ErrShortPayload
		}
		tn := int(body[0])
		body = body[1:]
		if len(body) < tn {
			return r, ErrShortPayload
		}
		r.Tenant = string(body[:tn])
		body = body[tn:]
	}
	switch r.Mode {
	case ModeText:
		r.Text = string(body)
	case ModeTokens:
		if len(body) < 4 {
			return r, ErrShortPayload
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(len(body)) != uint64(n)*4 {
			return r, fmt.Errorf("%w: %d token bytes for count %d", ErrShortPayload, len(body), n)
		}
		toks := tokens[:0]
		for i := uint32(0); i < n; i++ {
			toks = append(toks, binary.LittleEndian.Uint32(body[i*4:]))
		}
		r.Tokens = toks
	default:
		return r, ErrBadMode
	}
	return r, nil
}

// AppendResponse appends the encoded response payload (no length prefix).
// Kind 0 encodes as KindResponse; KindGenResponse appends the generative
// trailer to the ok block.
func AppendResponse(dst []byte, r *Response) []byte {
	kind := r.Kind
	if kind == 0 {
		kind = KindResponse
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = append(dst, uint8(r.Status))
	if r.Status != StatusOK {
		if r.Status == StatusRateLimited {
			dst = binary.LittleEndian.AppendUint64(dst, r.RetryAfterNS)
		}
		return append(dst, r.Message...)
	}
	dst = append(dst, r.Label)
	dst = binary.LittleEndian.AppendUint32(dst, r.SeqLen)
	dst = binary.LittleEndian.AppendUint64(dst, r.LatencyNS)
	dst = binary.LittleEndian.AppendUint64(dst, r.QueueNS)
	dst = binary.LittleEndian.AppendUint64(dst, r.ExecNS)
	dst = binary.LittleEndian.AppendUint16(dst, r.DemotionHops)
	dst = binary.LittleEndian.AppendUint32(dst, r.Instance)
	dst = binary.LittleEndian.AppendUint32(dst, r.Runtime)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Batch))
	dst = binary.LittleEndian.AppendUint32(dst, r.BatchSize)
	if kind == KindGenResponse {
		dst = binary.LittleEndian.AppendUint64(dst, r.TTFTNS)
		dst = binary.LittleEndian.AppendUint32(dst, r.OutTokens)
	}
	return dst
}

// DecodeResponse parses a response payload. Message is copied out of p.
func DecodeResponse(p []byte) (Response, error) {
	var r Response
	if len(p) < respHeaderLen {
		return r, ErrShortPayload
	}
	if p[0] != KindResponse && p[0] != KindGenResponse {
		return r, ErrBadKind
	}
	r.Kind = p[0]
	r.ID = binary.LittleEndian.Uint64(p[1:])
	r.Status = Status(p[9])
	if r.Status >= numStatuses {
		return r, ErrBadStatus
	}
	if r.Status != StatusOK {
		rest := p[respHeaderLen:]
		if r.Status == StatusRateLimited {
			if len(rest) < 8 {
				return r, ErrShortPayload
			}
			r.RetryAfterNS = binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
		}
		r.Message = string(rest)
		return r, nil
	}
	if len(p) < respOKLen {
		return r, ErrShortPayload
	}
	if r.Kind == KindGenResponse {
		if len(p) < genRespOKLen {
			return r, ErrShortPayload
		}
		r.TTFTNS = binary.LittleEndian.Uint64(p[genRespTrailerAt:])
		r.OutTokens = binary.LittleEndian.Uint32(p[genRespTrailerAt+8:])
	}
	r.Label = p[10]
	r.SeqLen = binary.LittleEndian.Uint32(p[11:])
	r.LatencyNS = binary.LittleEndian.Uint64(p[15:])
	r.QueueNS = binary.LittleEndian.Uint64(p[23:])
	r.ExecNS = binary.LittleEndian.Uint64(p[31:])
	r.DemotionHops = binary.LittleEndian.Uint16(p[39:])
	r.Instance = binary.LittleEndian.Uint32(p[41:])
	r.Runtime = binary.LittleEndian.Uint32(p[45:])
	r.Batch = int64(binary.LittleEndian.Uint64(p[49:]))
	r.BatchSize = binary.LittleEndian.Uint32(p[57:])
	return r, nil
}
