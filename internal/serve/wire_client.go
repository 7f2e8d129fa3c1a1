// WireClient speaks the binary ingress protocol: one TCP connection, many
// in-flight requests, responses matched by id. It is the pipelining
// counterpart of Client — no per-request connection or HTTP framing, so a
// closed-loop caller fleet shares one socket.

package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/wire"
)

// WireClient is a pipelining binary-protocol client, in two layers. The
// raw layer — RoundTrip, Load, Alive — moves frames and fails only when
// the transport does; it is what a router forwards over. The policy layer
// on top — Infer, Generate and their variants — stamps the client's
// tenant and turns a non-OK reply into an *APIError; it does not retry.
// Safe for concurrent use; every in-flight call shares the connection.
// Tenant must be set before the first call.
type WireClient struct {
	// Tenant, when non-empty, is stamped on every policy-layer request —
	// the binary twin of the X-Arlo-Tenant header.
	Tenant string

	conn net.Conn
	fw   *frameWriter

	mu      sync.Mutex
	pending map[uint64]chan wireReply
	// err is why the connection is dead (a read or write failure, or
	// Close); nil while it is alive.
	err error

	nextID atomic.Uint64
}

// wireReply is one demultiplexed reply frame: an inference response, or
// the snapshot of a load-snapshot frame.
type wireReply struct {
	resp wire.Response
	load *wire.LoadSnapshot
}

var errWireClosed = errors.New("serve: wire client closed")

// DialWire connects to a server's (or router's) binary listener.
func DialWire(addr string) (*WireClient, error) {
	return DialWireContext(context.Background(), addr)
}

// DialWireContext is DialWire bounded by ctx.
func DialWireContext(ctx context.Context, addr string) (*WireClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &WireClient{
		conn:    conn,
		fw:      newFrameWriter(conn),
		pending: make(map[uint64]chan wireReply),
	}
	go c.readLoop()
	return c, nil
}

// readLoop delivers reply frames to their waiting callers until the
// connection dies, then fails every pending call. A frame that is
// neither a response nor a load snapshot means the stream cannot be
// trusted, and kills the connection like a read error.
func (c *WireClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, 32<<10)
	var buf []byte
	for {
		var payload []byte
		var err error
		payload, buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			_ = c.fail(err)
			return
		}
		var r wireReply
		var id uint64
		if len(payload) > 0 && payload[0] == wire.KindLoadResponse {
			var snap wire.LoadSnapshot
			snap, err = wire.DecodeLoadSnapshot(payload)
			r.load, id = &snap, snap.ID
		} else {
			r.resp, err = wire.DecodeResponse(payload)
			id = r.resp.ID
		}
		if err != nil {
			_ = c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- r // buffered; never blocks the read loop
		}
	}
}

// fail poisons the client and closes its connection: every pending and
// future call returns err. Only the first failure counts.
func (c *WireClient) fail(err error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// Close tears down the connection; in-flight calls return an error.
func (c *WireClient) Close() error { return c.fail(errWireClosed) }

// Alive reports whether the connection can still carry requests: it has
// not failed and has not been closed.
func (c *WireClient) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

// register allocates a connection-local id and the slot its reply will
// be delivered to. It fails on a dead connection, and on a finished ctx
// before anything is sent.
func (c *WireClient) register(ctx context.Context) (uint64, chan wireReply, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	id := c.nextID.Add(1)
	ch := make(chan wireReply, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.dead()
	}
	c.pending[id] = ch
	return id, ch, nil
}

// await waits for the reply to the frame just sent under id (sendErr is
// that send's outcome), for ctx, or for the connection's death; it errs
// only when no reply arrived. A write error poisons the connection: its
// buffered writer would fail every later frame anyway.
func (c *WireClient) await(ctx context.Context, id uint64, ch chan wireReply, sendErr error) (wireReply, error) {
	if sendErr != nil {
		_ = c.fail(sendErr)
	} else {
		select {
		case r, ok := <-ch:
			if ok {
				return r, nil
			}
		case <-ctx.Done():
			// The peer still answers (its side of the deadline fires
			// too); drop the pending entry so the read loop discards
			// that reply.
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return wireReply{}, ctx.Err()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return wireReply{}, c.dead()
}

// dead wraps the failure that killed the connection; c.mu is held.
func (c *WireClient) dead() error {
	return fmt.Errorf("serve: wire connection dead: %w", c.err)
}

// RoundTrip sends one request frame — req.ID is overwritten with a
// connection-local id and req.Deadline with ctx's deadline, when it has
// one — and returns the peer's reply. It errs only when no reply arrived
// (transport failure, ctx); a typed non-OK reply is returned as a value.
// The request is encoded straight into the connection's write buffer.
func (c *WireClient) RoundTrip(ctx context.Context, req *wire.Request) (wire.Response, error) {
	id, ch, err := c.register(ctx)
	if err != nil {
		return wire.Response{}, err
	}
	req.ID = id
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	r, err := c.await(ctx, id, ch,
		c.fw.send(func(dst []byte) []byte { return wire.AppendRequest(dst, req) }))
	if err == nil && r.load != nil {
		err = errors.New("serve: load snapshot in reply to a request")
	}
	return r.resp, err
}

// Load asks the peer for its load snapshot (a shard answers; a router
// does not, and the error then carries its unsupported_field reply).
func (c *WireClient) Load(ctx context.Context) (wire.LoadSnapshot, error) {
	id, ch, err := c.register(ctx)
	if err != nil {
		return wire.LoadSnapshot{}, err
	}
	r, err := c.await(ctx, id, ch,
		c.fw.send(func(dst []byte) []byte { return wire.AppendLoadRequest(dst, id) }))
	if err != nil {
		return wire.LoadSnapshot{}, err
	}
	if r.load == nil {
		return wire.LoadSnapshot{}, fmt.Errorf("serve: load probe answered %v: %s", r.resp.Status, r.resp.Message)
	}
	return *r.load, nil
}

// InferCtx sends one raw-text request; the server tokenizes.
func (c *WireClient) InferCtx(ctx context.Context, text string) (*InferResponse, error) {
	return c.infer(ctx, &wire.Request{Mode: wire.ModeText, Text: text})
}

// InferTokensCtx sends pre-encoded token ids, skipping server-side
// tokenization — the lowest-overhead submit path.
func (c *WireClient) InferTokensCtx(ctx context.Context, tokens []uint32) (*InferResponse, error) {
	return c.infer(ctx, &wire.Request{Mode: wire.ModeTokens, Tokens: tokens})
}

func (c *WireClient) infer(ctx context.Context, req *wire.Request) (*InferResponse, error) {
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	out := inferResponse(&resp)
	return &out, nil
}

// GenerateCtx sends one KindGenRequest frame and decodes the
// KindGenResponse trailer (TTFT, generated token count).
func (c *WireClient) GenerateCtx(ctx context.Context, text string, maxNewTokens int) (*GenerateResponse, error) {
	resp, err := c.do(ctx, &wire.Request{
		Kind:         wire.KindGenRequest,
		Mode:         wire.ModeText,
		Text:         text,
		MaxNewTokens: uint32(maxNewTokens),
	})
	if err != nil {
		return nil, err
	}
	out := generateResponse(&resp)
	return &out, nil
}

// do is the policy layer over RoundTrip: it stamps the client's tenant
// (the encoder then picks the V2 frame) and turns a non-OK reply into an
// *APIError with the JSON client's status and stable code, so errors.Is
// against the cluster sentinels behaves identically across protocols.
func (c *WireClient) do(ctx context.Context, req *wire.Request) (wire.Response, error) {
	if c.Tenant != "" {
		req.Tenant = c.Tenant
	}
	resp, err := c.RoundTrip(ctx, req)
	if err != nil || resp.Status == wire.StatusOK {
		return resp, err
	}
	return resp, &APIError{
		Status:     wireHTTPStatus(resp.Status),
		Code:       resp.Status.String(),
		Message:    resp.Message,
		RetryAfter: time.Duration(resp.RetryAfterNS),
	}
}
