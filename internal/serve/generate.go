package serve

// The generative endpoint's types: POST /v1/generate (Frontend.HandleGenerate)
// submits a prompt with a requested output budget through the same
// dispatch path as /v1/infer, and reports the generative latency
// decomposition — time-to-first-token (TTFT) and time-per-output-token
// (TPOT) — alongside the lifecycle span. The generated text itself is
// emulated (the system under study is the scheduler); the response
// carries the token count, not token strings.

import (
	"context"
	"encoding/json"
	"errors"
)

// ErrUnsupportedField reports a /v1/generate request carrying a field the
// server does not implement. Mapped to CodeUnsupportedField (HTTP 400) in
// the error envelope and StatusUnsupportedField on the wire.
var ErrUnsupportedField = errors.New("serve: unsupported field")

// CodeUnsupportedField is the envelope code for ErrUnsupportedField.
const CodeUnsupportedField = "unsupported_field"

// MaxNewTokensLimit caps GenerateRequest.MaxNewTokens: a budget beyond it
// is rejected as invalid rather than holding a decode slot indefinitely.
const MaxNewTokensLimit = 4096

// GenerateRequest is the body of POST /v1/generate. Unknown fields are
// rejected with unsupported_field.
type GenerateRequest struct {
	// Text is the prompt.
	Text string `json:"text"`
	// MaxNewTokens is the output budget: the request completes after
	// generating this many tokens. Must be in [1, MaxNewTokensLimit].
	MaxNewTokens int `json:"max_new_tokens"`
	// Tenant is the submitting tenant id; the X-Arlo-Tenant header wins
	// when both are present.
	Tenant string `json:"tenant,omitempty"`
}

// GenerateResponse is the reply of POST /v1/generate.
type GenerateResponse struct {
	// Label is the emulated generation summary (deterministic over the
	// prompt's token ids, as /v1/infer's classifier output).
	Label string `json:"label"`
	// SequenceLength is the tokenized prompt length Arlo dispatched on.
	SequenceLength int `json:"sequence_length"`
	// OutputTokens is how many tokens were generated (the request's
	// max_new_tokens — emulated generation never stops early).
	OutputTokens int `json:"output_tokens"`
	// TTFTMS is the time to first token in milliseconds: submission to the
	// end of the request's prefill iteration.
	TTFTMS float64 `json:"ttft_ms"`
	// TPOTMS is the mean time per output token after the first, in
	// milliseconds; 0 when a single token was generated.
	TPOTMS float64 `json:"tpot_ms"`
	// LatencyMS is the measured end-to-end serving latency in milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// QueueMS is the time spent queued before execution started.
	QueueMS float64 `json:"queue_ms"`
	// ExecMS is the emulated kernel execution time (prefill plus decode
	// residency).
	ExecMS float64 `json:"exec_ms"`
	// DemotionHops, Instance, Runtime, Batch, BatchSize mirror
	// InferResponse.
	DemotionHops int   `json:"demotion_hops"`
	Instance     int   `json:"instance"`
	Runtime      int   `json:"runtime"`
	Batch        int64 `json:"batch,omitempty"`
	BatchSize    int   `json:"batch_size,omitempty"`
}

// GenerateCtx posts one generative request, honoring ctx across all
// attempts and applying the client's per-attempt Timeout and retry policy.
func (c *Client) GenerateCtx(ctx context.Context, text string, maxNewTokens int) (*GenerateResponse, error) {
	body, err := json.Marshal(GenerateRequest{Text: text, MaxNewTokens: maxNewTokens})
	if err != nil {
		return nil, err
	}
	var out GenerateResponse
	if err := c.postJSON(ctx, "/v1/generate", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
