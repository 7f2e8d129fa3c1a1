package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Mode: ModeText, Text: "the quick brown fox"},
		{ID: 42, Deadline: 1_700_000_000_000_000_000, Mode: ModeText, Text: ""},
		{ID: 7, Mode: ModeTokens, Tokens: []uint32{101, 2023, 102}},
		{ID: 1<<64 - 1, Mode: ModeTokens, Tokens: nil},
		{Kind: KindGenRequest, ID: 8, Mode: ModeText, Text: "generate from this", MaxNewTokens: 32},
		{Kind: KindGenRequest, ID: 9, Deadline: 1_700_000_000_000_000_000, Mode: ModeTokens,
			Tokens: []uint32{7, 8, 9}, MaxNewTokens: 1},
	}
	for _, want := range cases {
		p := AppendRequest(nil, &want)
		got, err := DecodeRequest(p, nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Deadline != want.Deadline || got.Mode != want.Mode || got.Text != want.Text {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
		if got.MaxNewTokens != want.MaxNewTokens {
			t.Errorf("max_new_tokens: got %d want %d", got.MaxNewTokens, want.MaxNewTokens)
		}
		wantKind := want.Kind
		if wantKind == 0 {
			wantKind = KindRequest
		}
		if got.Kind != wantKind {
			t.Errorf("kind: got %d want %d", got.Kind, wantKind)
		}
		if len(got.Tokens) != len(want.Tokens) {
			t.Fatalf("tokens: got %v want %v", got.Tokens, want.Tokens)
		}
		for i := range want.Tokens {
			if got.Tokens[i] != want.Tokens[i] {
				t.Errorf("token %d: got %d want %d", i, got.Tokens[i], want.Tokens[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Kind: KindResponse, ID: 9, Status: StatusOK, Label: 2, SeqLen: 128, LatencyNS: 5_000_000,
			QueueNS: 1_000, ExecNS: 4_999_000, DemotionHops: 1, Instance: 3,
			Runtime: 1, Batch: 77, BatchSize: 4},
		{Kind: KindResponse, ID: 10, Status: StatusCongested, Message: "worker 3 queue overflow"},
		{Kind: KindResponse, ID: 11, Status: StatusDeadline, Message: ""},
		{Kind: KindGenResponse, ID: 12, Status: StatusOK, Label: 1, SeqLen: 64, LatencyNS: 9_000_000,
			QueueNS: 2_000, ExecNS: 8_998_000, Instance: 2, Runtime: 3, Batch: 5, BatchSize: 2,
			TTFTNS: 3_000_000, OutTokens: 17},
		{Kind: KindGenResponse, ID: 13, Status: StatusUnsupportedField, Message: "unknown frame kind"},
	}
	for _, want := range cases {
		p := AppendResponse(nil, &want)
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{
		AppendRequest(nil, &Request{ID: 1, Mode: ModeText, Text: "a"}),
		AppendResponse(nil, &Response{ID: 1, Status: StatusOK}),
		{},
	}
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range payloads {
		var p []byte
		var err error
		p, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(p, want) {
			t.Errorf("frame %d: got %x want %x", i, p, want)
		}
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Errorf("after stream: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	stream := []byte{0xff, 0xff, 0xff, 0xff} // 4 GiB-1 length prefix
	if _, _, err := ReadFrame(bytes.NewReader(stream), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	stream := AppendFrame(nil, []byte("hello"))
	for cut := 1; cut < len(stream); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(stream[:cut]), nil)
		if err == nil {
			t.Fatalf("cut %d: no error on truncated frame", cut)
		}
		if err == io.EOF && cut >= 4 {
			t.Errorf("cut %d: bare EOF mid-frame", cut)
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := []struct {
		name string
		p    []byte
		req  bool
		want error
	}{
		{"empty request", nil, true, ErrShortPayload},
		{"wrong kind", AppendResponse(nil, &Response{ID: 1}), true, ErrBadKind},
		{"bad mode", append(AppendRequest(nil, &Request{ID: 1})[:17], 9), true, ErrBadMode},
		{"token count lies", append(AppendRequest(nil, &Request{ID: 1, Mode: ModeTokens, Tokens: []uint32{1, 2}}), 0), true, ErrShortPayload},
		{"empty response", nil, false, ErrShortPayload},
		{"response wrong kind", AppendRequest(nil, &Request{ID: 1, Mode: ModeText}), false, ErrBadKind},
		{"bad status", []byte{KindResponse, 0, 0, 0, 0, 0, 0, 0, 0, 0xee}, false, ErrBadStatus},
		{"short ok body", []byte{KindResponse, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false, ErrShortPayload},
	}
	for _, tc := range cases {
		var err error
		if tc.req {
			_, err = DecodeRequest(tc.p, nil)
		} else {
			_, err = DecodeResponse(tc.p)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeRequestReusesTokenScratch(t *testing.T) {
	p := AppendRequest(nil, &Request{ID: 1, Mode: ModeTokens, Tokens: []uint32{5, 6, 7}})
	scratch := make([]uint32, 0, 8)
	got, err := DecodeRequest(p, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Tokens[0] != &scratch[:1][0] {
		t.Error("decode did not reuse the scratch slice")
	}
}

// TestDecodedRequestOwnsItsMemory pins the contract both read loops rely
// on: a decoded request shares nothing with the frame buffer, so the next
// ReadFrame may overwrite it while the request is still in flight.
func TestDecodedRequestOwnsItsMemory(t *testing.T) {
	for _, want := range []Request{
		{Kind: KindRequestV2, ID: 1, Mode: ModeText, Text: "the quick brown fox", Tenant: "acme"},
		{Kind: KindRequestV2, ID: 2, Mode: ModeTokens, Tokens: []uint32{101, 2023, 102}, Tenant: "acme"},
	} {
		buf := AppendRequest(nil, &want)
		got, err := DecodeRequest(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		if got.Text != want.Text || got.Tenant != want.Tenant || len(got.Tokens) != len(want.Tokens) {
			t.Fatalf("decoded request changed with its buffer: %+v, want %+v", got, want)
		}
		for i := range want.Tokens {
			if got.Tokens[i] != want.Tokens[i] {
				t.Fatalf("token %d changed with the buffer: %d, want %d", i, got.Tokens[i], want.Tokens[i])
			}
		}
	}
}
