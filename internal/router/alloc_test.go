//go:build !race

// Not under the race detector: there sync.Pool drops a share of its Puts on
// purpose, so the pooled paths cannot be held to their ceilings.

package router

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"arlo/internal/serve"
	"arlo/internal/wire"
)

// pipeListener hands ServeWire the server ends of in-process net.Pipe
// connections, so a whole wire request runs without the kernel's TCP path.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// dial returns a wire client on a new pipe into the listener.
func (l *pipeListener) dial() *serve.WireClient {
	client, server := net.Pipe()
	l.conns <- server
	return serve.NewWireClient(client)
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// serveOnPipe runs f's wire loop on a new pipe listener.
func serveOnPipe(t *testing.T, f *serve.Frontend) *pipeListener {
	t.Helper()
	l := newPipeListener()
	go func() { _ = f.ServeWire(l) }()
	t.Cleanup(func() { _ = l.Close() })
	return l
}

// TestWireRequestAllocCeilings pins the allocations of one whole wire
// request — WireClient.RoundTrip, Frontend.ServeWire, Server.Do, the
// cluster at compute ~0, and the reply — over net.Pipe, to one shard and
// through a Router in front of it. Every goroutine's allocations count,
// client included. Each ceiling is the most the path read over 20 runs
// before it was pinned; a change that lowers the path lowers its ceiling.
func TestWireRequestAllocCeilings(t *testing.T) {
	const maxDirect, maxRouted = 7, 21
	a := startShard(t, "a", []int{1, 1}, 1e-9)
	shard := serveOnPipe(t, a.srv.Frontend)

	dial := dialWire
	t.Cleanup(func() { dialWire = dial })
	dialWire = func(context.Context, string) (*serve.WireClient, error) { return shard.dial(), nil }
	// An hourly refresh keeps probe traffic out of the measurement.
	r := newRouter(t, Config{Shards: []ShardConfig{{Name: "a", Addr: "pipe"}}, SnapshotRefreshInterval: time.Hour})
	waitRefresh(t, r, 1)
	routed := serveOnPipe(t, r.Frontend)

	for _, c := range []struct {
		name string
		l    *pipeListener
		max  float64
	}{
		{"direct", shard, maxDirect},
		{"routed", routed, maxRouted},
	} {
		client := c.l.dial()
		defer client.Close()
		req := &wire.Request{Mode: wire.ModeText, Text: "a mid sized request body for the allocation guard"}
		run := func() {
			if resp, err := client.RoundTrip(context.Background(), req); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("%s: status %v (%s), err %v", c.name, resp.Status, resp.Message, err)
			}
		}
		run() // warm the pools, the job pool and the router's shard connection
		got := testing.AllocsPerRun(300, run)
		t.Logf("%s: %.0f allocs per request", c.name, got)
		if got > c.max {
			t.Errorf("%s wire request: %.0f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}
