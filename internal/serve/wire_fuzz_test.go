package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

// FuzzServeWire feeds arbitrary frame sequences to Frontend.ServeWire over
// net.Pipe, so every request that decodes crosses the server's ring and
// its self-drain. The stream is cut into frames the
// way the server cuts it; every complete frame must get exactly one reply
// (a decodable request one carrying its id), a stream that ends in an
// oversized length prefix must end in a close, and once the replies are in
// nothing may be in flight at the cluster. A panic anywhere in the server
// fails the input.
func FuzzServeWire(f *testing.F) {
	srv := fuzzServer(f)
	rec := srv.cluster.Recorder()

	frame := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = wire.AppendFrame(out, p)
		}
		return out
	}
	text := wire.AppendRequest(nil, &wire.Request{ID: 1, Text: "hello ring"})
	tokens := wire.AppendRequest(nil, &wire.Request{ID: 2, Mode: wire.ModeTokens, Tokens: []uint32{101, 7592, 102}})
	gen := wire.AppendRequest(nil, &wire.Request{ID: 3, Kind: wire.KindGenRequest, Text: "go on", MaxNewTokens: 4})
	tenant := wire.AppendRequest(nil, &wire.Request{ID: 4, Text: "tenant text", Tenant: "team-a"})
	spent := wire.AppendRequest(nil, &wire.Request{ID: 5, Text: "late", Deadline: 1})
	probe := wire.AppendLoadRequest(nil, 6)
	f.Add(frame(text))
	f.Add(frame(text, tokens, gen, tenant, spent, probe))
	f.Add(frame(text, []byte{}, []byte{0xff, 0, 1}, probe[:3]))
	f.Add(append(frame(text, tokens), 9, 0, 0, 0, 1))                     // torn last frame
	f.Add(append(frame(text), 0xff, 0xff, 0xff, 0xff, 1, 2, 3))           // oversized prefix
	f.Add(frame(wire.AppendRequest(nil, &wire.Request{ID: 7, Text: ""}))) // invalid: empty text

	f.Fuzz(func(t *testing.T, stream []byte) {
		frames, ids, oversized := cutFrames(stream)
		client, conn := net.Pipe()
		defer client.Close()
		l := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
		l.conns <- conn
		fe := NewFrontend(srv)
		served := make(chan error, 1)
		go func() { served <- fe.ServeWire(l) }()
		// The write fails once the server drops the connection on an
		// oversized prefix; what it already read is still answered.
		go func() { _, _ = client.Write(stream) }()

		_ = client.SetReadDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReader(client)
		var buf []byte
		for n := 0; n < frames; n++ {
			var payload []byte
			var err error
			payload, buf, err = wire.ReadFrame(br, buf)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", n+1, frames, err)
			}
			var id uint64
			if len(payload) > 0 && payload[0] == wire.KindLoadResponse {
				snap, err := wire.DecodeLoadSnapshot(payload)
				if err != nil {
					t.Fatalf("reply %d: undecodable load snapshot: %v", n+1, err)
				}
				id = snap.ID
			} else {
				resp, err := wire.DecodeResponse(payload)
				if err != nil {
					t.Fatalf("reply %d: undecodable response: %v", n+1, err)
				}
				id = resp.ID
			}
			if ids[id] > 0 {
				ids[id]--
			}
		}
		for id, left := range ids {
			if left > 0 {
				t.Fatalf("%d decodable frames with id %d got no reply", left, id)
			}
		}
		if oversized {
			if _, _, err := wire.ReadFrame(br, buf); !errors.Is(err, io.EOF) {
				t.Fatalf("after an oversized prefix: read %v, want the connection closed", err)
			}
		}
		_ = client.Close()
		_ = fe.Close()
		if err := <-served; err != nil {
			t.Fatalf("ServeWire: %v", err)
		}
		if got := rec.InFlight(); got != 0 {
			t.Fatalf("%d requests in flight after every reply", got)
		}
	})
}

// cutFrames cuts stream the way the server's read loop does: frames until
// the bytes run out mid-frame or a length prefix exceeds wire.MaxFrame. It
// returns how many complete frames precede that point, the ids of those
// that decode as requests or load probes (each with its count), and
// whether the stream ends in an oversized prefix.
func cutFrames(stream []byte) (frames int, ids map[uint64]int, oversized bool) {
	ids = map[uint64]int{}
	for len(stream) >= 4 {
		n := binary.LittleEndian.Uint32(stream)
		if n > wire.MaxFrame {
			return frames, ids, true
		}
		if uint64(len(stream)-4) < uint64(n) {
			break
		}
		p := stream[4 : 4+n]
		stream = stream[4+n:]
		frames++
		if len(p) > 0 && p[0] == wire.KindLoadRequest {
			if id, err := wire.DecodeLoadRequest(p); err == nil {
				ids[id]++
			}
		} else if req, err := wire.DecodeRequest(p, nil); err == nil {
			ids[req.ID]++
		}
	}
	return frames, ids, false
}

// pipeListener accepts the connections queued on conns, then blocks until
// closed, as a listener with no more dialers does.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// fuzzServer is a ring-fed server over a cluster whose emulated compute is
// near zero, so an input of many requests still runs in milliseconds.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 150*time.Millisecond)
	if err != nil {
		f.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		TimeScale: 1e-6,
		Overhead:  -1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(cl.Close)
	srv, err := New(tokenizer.New(), cl, WithMaxLength(512))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	return srv
}
