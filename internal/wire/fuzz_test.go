package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at both payload decoders and, when
// one accepts, re-encodes and re-decodes to pin decode∘encode = identity
// on the accepted set. Decoders must never panic or over-read: malformed
// frames come straight off the network.
func FuzzWireDecode(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{ID: 1, Mode: ModeText, Text: "hello world"}))
	f.Add(AppendRequest(nil, &Request{ID: 2, Deadline: 1_700_000_000_000_000_000, Mode: ModeTokens, Tokens: []uint32{101, 2023, 102}}))
	f.Add(AppendRequest(nil, &Request{ID: 3, Mode: ModeTokens}))
	f.Add(AppendResponse(nil, &Response{ID: 4, Status: StatusOK, Label: 1, SeqLen: 64, LatencyNS: 1}))
	f.Add(AppendResponse(nil, &Response{ID: 5, Status: StatusCongested, Message: "busy"}))
	f.Add(AppendRequest(nil, &Request{Kind: KindGenRequest, ID: 6, Mode: ModeText, Text: "prompt", MaxNewTokens: 16}))
	f.Add(AppendRequest(nil, &Request{Kind: KindGenRequest, ID: 7, Mode: ModeTokens, Tokens: []uint32{9, 9}, MaxNewTokens: 1}))
	f.Add(AppendResponse(nil, &Response{Kind: KindGenResponse, ID: 8, Status: StatusOK, SeqLen: 32, LatencyNS: 2, TTFTNS: 1, OutTokens: 4}))
	f.Add(AppendResponse(nil, &Response{Kind: KindGenResponse, ID: 9, Status: StatusUnsupportedField, Message: "unknown frame kind"}))
	f.Add(AppendRequest(nil, &Request{ID: 10, Mode: ModeText, Text: "tenant on kind 0", Tenant: "a"}))
	f.Add(AppendRequest(nil, &Request{Kind: KindGenRequest, ID: 11, Mode: ModeText, Text: "tenant on a V1 gen kind", MaxNewTokens: 2, Tenant: "a"}))
	f.Add([]byte{})
	f.Add([]byte{KindRequest})
	f.Add([]byte{KindResponse, 0, 0, 0, 0, 0, 0, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		if req, err := DecodeRequest(p, nil); err == nil {
			enc := AppendRequest(nil, &req)
			re, err := DecodeRequest(enc, nil)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			if re.ID != req.ID || re.Deadline != req.Deadline || re.Mode != req.Mode ||
				re.Kind != req.Kind || re.MaxNewTokens != req.MaxNewTokens ||
				re.Text != req.Text || len(re.Tokens) != len(req.Tokens) {
				t.Fatalf("request identity broken: %+v vs %+v", req, re)
			}
		}
		if resp, err := DecodeResponse(p); err == nil {
			enc := AppendResponse(nil, &resp)
			re, err := DecodeResponse(enc)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			// Error payloads may carry trailing garbage in Message; identity
			// must still hold field-for-field after one round trip.
			if re != resp {
				t.Fatalf("response identity broken: %+v vs %+v", resp, re)
			}
		}
		// Framing: a frame built from any payload must read back intact.
		if len(p) <= MaxFrame {
			framed := AppendFrame(nil, p)
			got, _, err := ReadFrame(bytes.NewReader(framed), nil)
			if err != nil {
				t.Fatalf("ReadFrame rejected own framing: %v", err)
			}
			if !bytes.Equal(got, p) {
				t.Fatal("frame round trip corrupted payload")
			}
		}
	})
}
