package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/tenant"
	"arlo/internal/wire"
)

// TestStatusTable pins the one error → status table against the triples
// the three hand-written switches it replaced gave: every dispatch-path
// sentinel's wire status, HTTP status and envelope code, the exported
// Code* constant equal to the status' String(), and APIError.Is mapping
// the code back to the sentinel.
func TestStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err      error
		status   wire.Status
		http     int
		code     string
		sentinel bool // APIError{code} must match err
	}{
		{dispatch.ErrTooLong, wire.StatusTooLong, http.StatusRequestEntityTooLarge, CodeTooLong, true},
		{cluster.ErrDeadlineExceeded, wire.StatusDeadline, http.StatusGatewayTimeout, CodeDeadlineExceeded, true},
		{cluster.ErrUnserviceable, wire.StatusUnserviceable, http.StatusServiceUnavailable, CodeUnserviceable, true},
		{cluster.ErrCongested, wire.StatusCongested, http.StatusServiceUnavailable, CodeCongested, true},
		{dispatch.ErrNoInstances, wire.StatusNoInstances, http.StatusServiceUnavailable, CodeNoInstances, true},
		{cluster.ErrClusterClosed, wire.StatusUnavailable, http.StatusServiceUnavailable, CodeUnavailable, true},
		{ErrRateLimited, wire.StatusRateLimited, http.StatusTooManyRequests, CodeRateLimited, true},
		{&tenant.RateLimitError{Tenant: "t", RetryAfter: time.Second}, wire.StatusRateLimited, http.StatusTooManyRequests, CodeRateLimited, true},
		{ErrUnsupportedField, wire.StatusUnsupportedField, http.StatusBadRequest, CodeUnsupportedField, true},
		{fmt.Errorf("worker 3: %w", cluster.ErrCongested), wire.StatusCongested, http.StatusServiceUnavailable, CodeCongested, true},
		{errors.New("something else"), wire.StatusInternal, http.StatusInternalServerError, CodeInternal, false},
	} {
		st := wireStatus(tc.err)
		if st != tc.status || wireHTTPStatus(st) != tc.http || st.String() != tc.code {
			t.Errorf("%v: got (%v, %d, %q), want (%v, %d, %q)",
				tc.err, st, wireHTTPStatus(st), st.String(), tc.status, tc.http, tc.code)
		}
		apiErr := &APIError{Status: tc.http, Code: tc.code}
		if got := errors.Is(apiErr, tc.err); got != tc.sentinel {
			t.Errorf("errors.Is(APIError{%s}, %v) = %v, want %v", tc.code, tc.err, got, tc.sentinel)
		}
	}
	// Statuses the front end produces itself rather than from an error.
	if wire.StatusInvalid.String() != CodeInvalidRequest || wireHTTPStatus(wire.StatusInvalid) != http.StatusBadRequest {
		t.Errorf("StatusInvalid = (%q, %d)", wire.StatusInvalid.String(), wireHTTPStatus(wire.StatusInvalid))
	}
}

// TestGenerateResponseTPOT: every path to a GenerateResponse reports the
// tpot_ms obs.Span.TPOT gives — whole nanoseconds per token after the
// first, and 0 without a first-token time or a second token.
func TestGenerateResponseTPOT(t *testing.T) {
	for _, sp := range []obs.Span{
		{Total: 10_000_003, TTFT: 1_000_000, OutTokens: 8},
		{Total: 10_000_000, TTFT: 0, OutTokens: 8},
		{Total: 10_000_000, TTFT: 1_000_000, OutTokens: 1},
		{Total: 1_000_000, TTFT: 1_000_000, OutTokens: 4},
	} {
		got := generateResponse(&wire.Response{
			LatencyNS: uint64(sp.Total), TTFTNS: uint64(sp.TTFT), OutTokens: uint32(sp.OutTokens),
		}).TPOTMS
		if want := float64(sp.TPOT()) / float64(time.Millisecond); got != want {
			t.Errorf("span %+v: tpot_ms = %v, want Span.TPOT's %v", sp, got, want)
		}
	}
}
