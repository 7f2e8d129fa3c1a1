package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestGenerateEndToEnd(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	resp, err := c.GenerateCtx(context.Background(), "the quick brown fox jumps over the lazy dog", 8)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OutputTokens != 8 {
		t.Errorf("output_tokens = %d, want 8", resp.OutputTokens)
	}
	if resp.TTFTMS <= 0 {
		t.Errorf("ttft_ms = %v, want > 0", resp.TTFTMS)
	}
	if resp.TPOTMS <= 0 {
		t.Errorf("tpot_ms = %v, want > 0 for 8 output tokens", resp.TPOTMS)
	}
	if resp.LatencyMS < resp.TTFTMS {
		t.Errorf("latency %vms < ttft %vms", resp.LatencyMS, resp.TTFTMS)
	}
	if resp.SequenceLength <= 0 {
		t.Errorf("sequence_length = %d", resp.SequenceLength)
	}
}

func TestGenerateRejectsUnknownFields(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"text":"hello world","max_new_tokens":4,"temperature":0.7}`
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeUnsupportedField {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnsupportedField)
	}
	if !strings.Contains(env.Error.Message, "temperature") {
		t.Errorf("message %q should name the offending field", env.Error.Message)
	}
}

func TestGenerateValidation(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cases := []struct {
		name, body string
		wantCode   string
	}{
		{"empty text", `{"text":"","max_new_tokens":4}`, CodeInvalidRequest},
		{"zero budget", `{"text":"hi","max_new_tokens":0}`, CodeInvalidRequest},
		{"negative budget", `{"text":"hi","max_new_tokens":-3}`, CodeInvalidRequest},
		{"huge budget", `{"text":"hi","max_new_tokens":1000000}`, CodeInvalidRequest},
		{"bad json", `{"text":`, CodeInvalidRequest},
		{"trailing garbage", `{"text":"hi","max_new_tokens":4} extra`, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var env ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
		})
	}
}

func TestGenerateClientSurfacesUnsupportedField(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := []byte(`{"text":"hi","max_new_tokens":2,"top_p":0.9}`)
	c := &Client{BaseURL: ts.URL}
	var out GenerateResponse
	err := c.postJSON(t.Context(), "/v1/generate", body, &out)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != CodeUnsupportedField || apiErr.Status != http.StatusBadRequest {
		t.Errorf("got (%q, %d), want (%q, 400)", apiErr.Code, apiErr.Status, CodeUnsupportedField)
	}
}

// /v1/infer must stay byte-compatible: the lenient decoder still accepts
// unknown fields, and the hand-rolled response encoding is unchanged.
func TestInferStaysLenient(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"text":"hello world","future_field":true}`
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (lenient decode)", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var ir InferResponse
	if err := json.Unmarshal(buf.Bytes(), &ir); err != nil {
		t.Fatalf("infer response no longer valid JSON: %v", err)
	}
	// No generative fields may leak into the infer encoding.
	if bytes.Contains(buf.Bytes(), []byte("ttft")) || bytes.Contains(buf.Bytes(), []byte("output_tokens")) {
		t.Errorf("infer response grew generative fields: %s", buf.String())
	}
}
