package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/wire"
)

// startWire attaches a binary listener to the server and returns its
// address.
func startWire(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeWire(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

func TestWireInferEndToEnd(t *testing.T) {
	srv, _ := testServer(t)
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.InferCtx(context.Background(), "the data team won the game today")
	if err != nil {
		t.Fatal(err)
	}
	if resp.SequenceLength <= 0 {
		t.Errorf("sequence length = %d, want > 0", resp.SequenceLength)
	}
	if resp.LatencyMS <= 0 {
		t.Errorf("latency = %v, want > 0", resp.LatencyMS)
	}
	if resp.Label == "" {
		t.Error("empty label")
	}

	// The binary reply must agree with the JSON endpoint's semantics:
	// identical input classifies identically.
	want := inferLabels[classify(asTokens(srv, "the data team won the game today").Tokens)]
	if resp.Label != want {
		t.Errorf("label %q, want %q", resp.Label, want)
	}
}

func TestWireInferTokensSkipsTokenizer(t *testing.T) {
	srv, _ := testServer(t)
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := srv.tok.Encode("a pre-encoded request", srv.maxLen)
	toks := make([]uint32, len(ids))
	for i, id := range ids {
		toks[i] = uint32(id)
	}
	resp, err := c.InferTokensCtx(context.Background(), toks)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SequenceLength != len(ids) {
		t.Errorf("sequence length = %d, want %d", resp.SequenceLength, len(ids))
	}
	if want := inferLabels[classify(toks)]; resp.Label != want {
		t.Errorf("label %q, want %q (token mode must classify like text mode)", resp.Label, want)
	}
}

func TestWirePipelinedConcurrent(t *testing.T) {
	srv, _ := testServer(t)
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			texts := []string{
				"short one",
				"a somewhat longer sentence with several more words in it",
				"x",
			}
			resp, err := c.InferCtx(context.Background(), texts[i%len(texts)])
			if err != nil {
				errs <- err
				return
			}
			if resp.SequenceLength <= 0 {
				errs <- errors.New("bad sequence length")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := statsOf(t, srv).Served; got != n {
		t.Errorf("/v1/stats served = %d, want the %d replies the client read", got, n)
	}
}

func TestWireErrorMapping(t *testing.T) {
	srv, _ := testServer(t)
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Empty text is invalid at the protocol layer.
	if _, err := c.InferCtx(context.Background(), ""); err == nil {
		t.Error("empty text should fail")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidRequest {
			t.Errorf("err = %v, want invalid_request APIError", err)
		}
	}

	// A spent deadline maps back to the cluster sentinel through
	// errors.Is, exactly like the JSON client.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.InferCtx(ctx, "some text"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("spent deadline: err = %v, want ctx deadline error", err)
	}
}

func TestWireServerWithIngress(t *testing.T) {
	srv, _ := testServerOpts(t, WithIngress(cluster.IngressConfig{Shards: 2}))
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.InferCtx(context.Background(), "ring fed inference request")
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatencyMS <= 0 {
		t.Errorf("latency = %v, want > 0", resp.LatencyMS)
	}
}

// testServerOpts is testServer with extra server options.
func testServerOpts(t *testing.T, opts ...Option) (*Server, *cluster.Cluster) {
	t.Helper()
	srv, cl := testServer(t)
	_ = srv
	opts = append([]Option{WithMaxLength(512)}, opts...)
	srv2, err := New(srv.tok, cl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	return srv2, cl
}

// TestAppendInferResponseMatchesJSON pins the hand-rolled encoder to
// encoding/json byte-for-byte, omitempty behavior included.
func TestAppendInferResponseMatchesJSON(t *testing.T) {
	cases := []InferResponse{
		{Label: "positive", SequenceLength: 128, LatencyMS: 5.125, QueueMS: 0.25,
			ExecMS: 4.875, DemotionHops: 2, Instance: 3, Runtime: 1},
		{Label: "neutral", SequenceLength: 1, LatencyMS: 0, QueueMS: 0, ExecMS: 0},
		{Label: "negative", SequenceLength: 512, LatencyMS: 123.456789, QueueMS: 1e-7,
			ExecMS: 1e22, DemotionHops: 0, Instance: 0, Runtime: 7, Batch: 42, BatchSize: 8},
	}
	for _, r := range cases {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendInferResponse(nil, &r)
		// json.Encoder (the old writer) appends a newline; Marshal doesn't.
		if string(got) != string(want)+"\n" {
			t.Errorf("encoding diverged:\n got: %s\nwant: %s", got, want)
		}
	}
}

func TestWireGenerateEndToEnd(t *testing.T) {
	srv, _ := testServer(t)
	addr := startWire(t, srv)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.GenerateCtx(context.Background(), "the quick brown fox jumps over the lazy dog", 8)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OutputTokens != 8 {
		t.Errorf("output tokens = %d, want 8", resp.OutputTokens)
	}
	if resp.TTFTMS <= 0 {
		t.Errorf("ttft = %vms, want > 0", resp.TTFTMS)
	}
	if resp.LatencyMS < resp.TTFTMS {
		t.Errorf("latency %vms < ttft %vms", resp.LatencyMS, resp.TTFTMS)
	}

	// A budget outside [1, MaxNewTokensLimit] is invalid, not unsupported.
	if _, err := c.GenerateCtx(context.Background(), "hi", 0); err == nil {
		t.Error("zero max_new_tokens should fail")
	}
}

// TestWireClientRawLayer covers what a router forwards over: RoundTrip
// returns a typed non-OK reply as a value (an error only when no reply
// arrived), Load fetches the snapshot over the same connection, and
// Alive flips once the client is closed.
func TestWireClientRawLayer(t *testing.T) {
	srv, _ := testServerOpts(t, WithShardName("raw"))
	c, err := DialWire(startWire(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := c.RoundTrip(ctx, &wire.Request{Kind: wire.KindGenRequest, Mode: wire.ModeText, Text: "hi"})
	if err != nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("zero budget: resp %+v err %v, want an invalid_request reply as a value", resp, err)
	}
	resp, err = c.RoundTrip(ctx, &wire.Request{Mode: wire.ModeText, Text: "a served request"})
	if err != nil || resp.Status != wire.StatusOK || resp.SeqLen == 0 {
		t.Fatalf("served request: resp %+v err %v", resp, err)
	}
	snap, err := c.Load(ctx)
	if err != nil || snap.Shard != "raw" || snap.Completed == 0 {
		t.Fatalf("load probe: snap %+v err %v", snap, err)
	}
	if !c.Alive() {
		t.Fatal("live connection reports dead")
	}
	_ = c.Close()
	if c.Alive() {
		t.Error("closed connection reports alive")
	}
	if _, err := c.RoundTrip(ctx, &wire.Request{Mode: wire.ModeText, Text: "x"}); err == nil {
		t.Error("RoundTrip on a closed client should fail")
	}
}

// brokenConn is a connection whose writes fail.
type brokenConn struct {
	net.Conn
	writes int
}

func (c *brokenConn) Write([]byte) (int, error) { c.writes++; return 0, errors.New("broken pipe") }
func (c *brokenConn) Close() error              { return nil }

// TestWireClientWriteErrorPoisons: a failed write kills the connection —
// its buffered writer would fail every later frame anyway — so the next
// call fails fast and a router redials instead of reusing it.
func TestWireClientWriteErrorPoisons(t *testing.T) {
	nc := &brokenConn{}
	c := &WireClient{conn: nc, fw: newFrameWriter(nc), pending: make(map[uint64]chan wireReply)}
	req := &wire.Request{Mode: wire.ModeText, Text: "x"}
	if _, err := c.RoundTrip(context.Background(), req); err == nil {
		t.Fatal("RoundTrip over a broken connection should fail")
	}
	if c.Alive() {
		t.Error("connection still alive after a write error")
	}
	if _, err := c.RoundTrip(context.Background(), req); err == nil || nc.writes != 1 {
		t.Errorf("second RoundTrip: err %v after %d writes, want a failure without touching the connection", err, nc.writes)
	}
}
