package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"arlo/internal/wire"
)

// defaultHTTPClient replaces http.DefaultClient as the zero-config
// transport: the default caps idle connections per host at 2, so a
// closed-loop caller fleet churns through TCP handshakes and TIME_WAIT
// sockets. Keep-alives stay on and the idle pool is sized for benchmark
// fan-in.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   128,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	},
}

// Client is a typed client for the server's API with per-request
// timeouts and bounded retry-with-backoff for transient failures.
type Client struct {
	// BaseURL like "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each individual attempt (not the whole retry
	// sequence). Zero means no per-attempt timeout beyond the caller's
	// context.
	Timeout time.Duration
	// MaxRetries is how many times a failed attempt is retried. Only
	// transport errors and retryable statuses (503, 502, 500) are
	// retried; 4xx and 504 are not. Zero means a single attempt.
	MaxRetries int
	// Backoff is the delay before the first retry, doubling each retry.
	// Defaults to 50ms when MaxRetries > 0.
	Backoff time.Duration
	// Tenant, when non-empty, is sent as the X-Arlo-Tenant header on every
	// request — the client-side half of tenant identity.
	Tenant string
}

// APIError is a non-2xx reply decoded from the server's error envelope.
// It matches the dispatch-path sentinels through errors.Is, so callers
// can handle HTTP and in-process submissions identically:
//
//	_, err := client.Infer(text)
//	if errors.Is(err, cluster.ErrCongested) { backoff() }
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable envelope code (see CodeInvalidRequest etc.).
	Code string
	// Message is the server's human-readable detail.
	Message string
	// RetryAfter is the server's backoff hint (429 replies); zero when the
	// server sent none.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Is maps envelope codes back onto the sentinels the server mapped them
// from, through the same table (wireStatus) it used.
func (e *APIError) Is(target error) bool {
	st := wireStatus(target)
	return st != wire.StatusInternal && e.Code == st.String()
}

// retryable reports whether a reply status is worth another attempt: the
// transient 5xx family plus 429 (the budget refills), but not 504 (the
// request's time budget is spent, a retry would just spend it again).
func retryable(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusTooManyRequests:
		return true
	}
	return false
}

// Infer posts one inference request with background context.
func (c *Client) Infer(text string) (*InferResponse, error) {
	return c.InferCtx(context.Background(), text)
}

// InferCtx posts one inference request, honoring ctx across all attempts
// and applying the client's per-attempt Timeout and retry policy.
func (c *Client) InferCtx(ctx context.Context, text string) (*InferResponse, error) {
	body, err := json.Marshal(InferRequest{Text: text})
	if err != nil {
		return nil, err
	}
	var out InferResponse
	if err := c.postJSON(ctx, "/v1/infer", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// postJSON posts body to path and decodes a 200 reply into out, retrying
// transient failures under the client's policy.
func (c *Client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.postOnce(ctx, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		// The caller's context ending is never retryable; neither are
		// non-retryable API statuses.
		if ctx.Err() != nil {
			return lastErr
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !retryable(apiErr.Status) {
			return lastErr
		}
		if attempt >= c.MaxRetries {
			return lastErr
		}
		// Full jitter on the exponential schedule: a uniformly random wait
		// in (0, backoff] decorrelates retry herds after a shared transient
		// (congestion, instance failure) instead of synchronizing them.
		wait := time.Duration(rand.Int63n(int64(backoff))) + 1
		if apiErr != nil && apiErr.RetryAfter > wait {
			// A rate-limited reply's Retry-After floors the wait: retrying
			// before the bucket refills is a guaranteed second rejection.
			wait = apiErr.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return lastErr
		}
		backoff *= 2
	}
}

func (c *Client) postOnce(ctx context.Context, path string, body []byte, out any) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx reply into an *APIError, tolerating
// non-envelope bodies (proxies, panics) by falling back to the raw text.
func decodeError(resp *http.Response) error {
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Error.Code,
			Message: env.Error.Message, RetryAfter: retryAfter}
	}
	return &APIError{
		Status:     resp.StatusCode,
		Code:       CodeInternal,
		Message:    string(bytes.TrimSpace(raw)),
		RetryAfter: retryAfter,
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form this server emits); 0 on absent or unparseable values.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Stats fetches the server counters.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics() (string, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}
