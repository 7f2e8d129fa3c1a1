package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestV1GoldenBytes pins the pre-tenancy frame layout byte for byte: a V1
// request encoded today must match the exact bytes an old client produced,
// and those bytes must decode to the same request. If this test fails the
// wire revision broke deployed clients.
func TestV1GoldenBytes(t *testing.T) {
	req := Request{Kind: KindRequest, ID: 0x0102030405060708, Deadline: 0x1112131415161718,
		Mode: ModeText, Text: "hi"}
	var golden []byte
	golden = append(golden, KindRequest)
	golden = binary.LittleEndian.AppendUint64(golden, req.ID)
	golden = binary.LittleEndian.AppendUint64(golden, uint64(req.Deadline))
	golden = append(golden, ModeText)
	golden = append(golden, "hi"...)

	got := AppendRequest(nil, &req)
	if !bytes.Equal(got, golden) {
		t.Fatalf("V1 encoding drifted:\n got %x\nwant %x", got, golden)
	}
	dec, err := DecodeRequest(golden, nil)
	if err != nil {
		t.Fatalf("decode golden V1: %v", err)
	}
	if dec.ID != req.ID || dec.Deadline != req.Deadline || dec.Text != "hi" || dec.Tenant != "" {
		t.Fatalf("golden V1 decode mismatch: %+v", dec)
	}

	gen := Request{Kind: KindGenRequest, ID: 9, Mode: ModeTokens,
		Tokens: []uint32{7, 9}, MaxNewTokens: 5}
	var goldenGen []byte
	goldenGen = append(goldenGen, KindGenRequest)
	goldenGen = binary.LittleEndian.AppendUint64(goldenGen, gen.ID)
	goldenGen = binary.LittleEndian.AppendUint64(goldenGen, 0)
	goldenGen = append(goldenGen, ModeTokens)
	goldenGen = binary.LittleEndian.AppendUint32(goldenGen, 5)
	goldenGen = binary.LittleEndian.AppendUint32(goldenGen, 2)
	goldenGen = binary.LittleEndian.AppendUint32(goldenGen, 7)
	goldenGen = binary.LittleEndian.AppendUint32(goldenGen, 9)
	if got := AppendRequest(nil, &gen); !bytes.Equal(got, goldenGen) {
		t.Fatalf("V1 gen encoding drifted:\n got %x\nwant %x", got, goldenGen)
	}
	if dec, err := DecodeRequest(goldenGen, nil); err != nil || dec.MaxNewTokens != 5 || len(dec.Tokens) != 2 {
		t.Fatalf("golden V1 gen decode: %+v err=%v", dec, err)
	}
}

func TestV2RequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Kind: KindRequestV2, ID: 1, Mode: ModeText, Text: "hello", Tenant: "acme"},
		{Kind: KindRequestV2, ID: 2, Mode: ModeTokens, Tokens: []uint32{1, 2, 3}, Tenant: ""},
		{Kind: KindRequestV2, ID: 3, Deadline: 123456789, Mode: ModeText, Text: "", Tenant: "team-a.prod:eu"},
		{Kind: KindGenRequestV2, ID: 4, Mode: ModeText, Text: "gen", MaxNewTokens: 64, Tenant: "noisy"},
		{Kind: KindGenRequestV2, ID: 5, Mode: ModeTokens, Tokens: []uint32{42}, MaxNewTokens: 1, Tenant: "x"},
	}
	for _, want := range cases {
		p := AppendRequest(nil, &want)
		if p[1] != FrameVersion {
			t.Fatalf("kind %d: version byte = %d, want %d", want.Kind, p[1], FrameVersion)
		}
		got, err := DecodeRequest(p, nil)
		if err != nil {
			t.Fatalf("decode V2 %+v: %v", want, err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || got.Deadline != want.Deadline ||
			got.Tenant != want.Tenant || got.MaxNewTokens != want.MaxNewTokens ||
			got.Text != want.Text || len(got.Tokens) != len(want.Tokens) {
			t.Fatalf("V2 roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestV2BadVersion(t *testing.T) {
	p := AppendRequest(nil, &Request{Kind: KindRequestV2, ID: 1, Mode: ModeText, Tenant: "t"})
	p[1] = 3
	if _, err := DecodeRequest(p, nil); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version=3 err = %v, want ErrBadVersion", err)
	}
}

func TestV2TruncatedTenant(t *testing.T) {
	p := AppendRequest(nil, &Request{Kind: KindRequestV2, ID: 1, Mode: ModeText, Tenant: "tenant"})
	// Cut into the tenant bytes: length prefix promises more than present.
	if _, err := DecodeRequest(p[:reqV2HeaderLen+3], nil); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated tenant err = %v, want ErrShortPayload", err)
	}
	// Missing the length prefix entirely.
	if _, err := DecodeRequest(p[:reqV2HeaderLen], nil); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("missing tenant_len err = %v, want ErrShortPayload", err)
	}
}

func TestV2TenantLengthClamp(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, 300))
	p := AppendRequest(nil, &Request{Kind: KindRequestV2, ID: 1, Mode: ModeText, Tenant: long})
	got, err := DecodeRequest(p, nil)
	if err != nil {
		t.Fatalf("decode clamped tenant: %v", err)
	}
	if len(got.Tenant) != 255 {
		t.Fatalf("tenant len = %d, want clamp to 255", len(got.Tenant))
	}
}

func TestRateLimitedResponseRoundTrip(t *testing.T) {
	want := Response{Kind: KindResponse, ID: 77, Status: StatusRateLimited,
		RetryAfterNS: 1_500_000_000, Message: "tenant noisy over budget"}
	p := AppendResponse(nil, &want)
	got, err := DecodeResponse(p)
	if err != nil {
		t.Fatalf("decode rate-limited response: %v", err)
	}
	if got.Status != StatusRateLimited || got.RetryAfterNS != want.RetryAfterNS ||
		got.Message != want.Message || got.ID != want.ID {
		t.Fatalf("rate-limited roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Truncated retry hint is a short payload, not a silent zero.
	if _, err := DecodeResponse(p[:respHeaderLen+4]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated retry hint err = %v, want ErrShortPayload", err)
	}
	if StatusRateLimited.String() != "rate_limited" {
		t.Fatalf("String() = %q", StatusRateLimited.String())
	}
}

// TestTenantDerivesRevision: the encoder picks the frame revision from
// the fields, so a sender that sets Tenant on a V1 kind (or on no kind at
// all) gets the V2 twin and its tenant arrives — it is never dropped.
func TestTenantDerivesRevision(t *testing.T) {
	for _, tc := range []struct {
		req      Request
		wantKind uint8
	}{
		{Request{ID: 1, Mode: ModeText, Text: "hi", Tenant: "a"}, KindRequestV2},
		{Request{Kind: KindRequest, ID: 2, Mode: ModeText, Text: "hi", Tenant: "a"}, KindRequestV2},
		{Request{Kind: KindGenRequest, ID: 3, Mode: ModeText, Text: "hi", MaxNewTokens: 4, Tenant: "a"}, KindGenRequestV2},
	} {
		got, err := DecodeRequest(AppendRequest(nil, &tc.req), nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc.req, err)
		}
		if got.Kind != tc.wantKind || got.Tenant != "a" || got.ID != tc.req.ID ||
			got.Text != "hi" || got.MaxNewTokens != tc.req.MaxNewTokens || got.Gen() != tc.req.Gen() {
			t.Errorf("tenant on kind %d: got %+v, want kind %d with the tenant", tc.req.Kind, got, tc.wantKind)
		}
	}
}
