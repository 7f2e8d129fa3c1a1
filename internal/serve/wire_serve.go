// The front end's binary surface: the same inference semantics as the
// JSON endpoints served over internal/wire's length-prefixed frames on a
// second listener. One connection carries many in-flight requests —
// clients pipeline and responses return as each request completes,
// matched by id — so the per-request cost is one frame each way instead
// of an HTTP round trip.

package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"arlo/internal/wire"
)

// ServeWire accepts binary-protocol connections on l until the listener
// fails or the front end is closed (Close closes l and returns nil here).
// Run it on its own goroutine next to the HTTP listener.
func (f *Frontend) ServeWire(l net.Listener) error {
	f.listMu.Lock()
	if f.closing.Load() {
		f.listMu.Unlock()
		_ = l.Close()
		return nil
	}
	f.listeners = append(f.listeners, l)
	f.listMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if f.closing.Load() {
				return nil
			}
			return err
		}
		go f.serveWireConn(conn)
	}
}

// Close stops the wire listeners and drops accepted wire connections.
// Idempotent.
func (f *Frontend) Close() error {
	f.closing.Store(true)
	f.listMu.Lock()
	ls := f.listeners
	f.listeners = nil
	cs := f.conns
	f.conns = nil
	f.listMu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	for c := range cs {
		_ = c.Close()
	}
	return nil
}

// trackConn registers an accepted wire connection for Close; it reports
// false (and closes the connection) when the front end is already closing.
func (f *Frontend) trackConn(c net.Conn) bool {
	f.listMu.Lock()
	defer f.listMu.Unlock()
	if f.closing.Load() {
		_ = c.Close()
		return false
	}
	if f.conns == nil {
		f.conns = make(map[net.Conn]struct{})
	}
	f.conns[c] = struct{}{}
	return true
}

func (f *Frontend) untrackConn(c net.Conn) {
	f.listMu.Lock()
	delete(f.conns, c)
	f.listMu.Unlock()
}

// serveWireConn runs one connection: a single read loop decodes and
// validates frames (answering the rejects itself) and fans each request
// out to its own goroutine, which runs it through the backend and writes
// its response frame under the shared write lock — out-of-order
// completion is the point of the id field.
func (f *Frontend) serveWireConn(conn net.Conn) {
	if !f.trackConn(conn) {
		return
	}
	defer f.untrackConn(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFrameWriter(conn)
	var wg sync.WaitGroup
	defer wg.Wait()
	var buf []byte
	for {
		var payload []byte
		var err error
		payload, buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			// EOF, torn frame or an oversized prefix: the stream cannot be
			// trusted past this point, so drop the connection.
			return
		}
		// Load-snapshot probes are answered inline: building a snapshot is
		// a handful of atomic reads, and routers poll on an interval, so a
		// goroutine per probe would cost more than the probe.
		if f.load != nil && len(payload) > 0 && payload[0] == wire.KindLoadRequest {
			id, err := wire.DecodeLoadRequest(payload)
			if err != nil {
				fw.response(&wire.Response{Status: wire.StatusInvalid, Message: "malformed load request"})
				continue
			}
			snap := f.load.LoadSnapshot()
			snap.ID = id
			_ = fw.send(func(dst []byte) []byte { return wire.AppendLoadSnapshot(dst, &snap) }) // a dead peer ends the read loop
			continue
		}
		// The decoded request owns its memory, so the next ReadFrame may
		// reuse buf while the request is still in flight.
		req, err := wire.DecodeRequest(payload, nil)
		if err != nil {
			resp := wire.Response{ID: req.ID, Status: wire.StatusInvalid, Message: "malformed request"}
			// A kind, mode or frame version this front end does not speak
			// is the binary twin of an unknown JSON field: reject it as
			// unsupported rather than malformed, so versioned clients can
			// tell the two apart.
			if errors.Is(err, wire.ErrBadKind) || errors.Is(err, wire.ErrBadMode) ||
				errors.Is(err, wire.ErrBadVersion) {
				resp.Status, resp.Message = wire.StatusUnsupportedField, err.Error()
			}
			fw.response(&resp)
			continue
		}
		if msg := invalid(&req, int64(req.MaxNewTokens)); msg != "" {
			fw.response(&wire.Response{ID: req.ID, Status: wire.StatusInvalid, Message: msg})
			continue
		}
		wg.Add(1)
		go func(req wire.Request) {
			defer wg.Done()
			ctx := context.Background()
			if req.Deadline != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Unix(0, req.Deadline))
				defer cancel()
			}
			resp, _ := f.backend.Do(ctx, req)
			resp.ID = req.ID
			fw.response(&resp)
		}(req)
	}
}

// frameWriter is the one frame writer: it serializes frames from
// concurrent goroutines onto a buffered connection writer, each as length
// prefix + payload followed by a flush.
type frameWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // the frame being built, reused across sends
}

func newFrameWriter(c net.Conn) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(c, 32<<10)}
}

// send has appendPayload encode one payload straight into the writer's
// buffer, behind its length prefix, then writes the frame and flushes.
func (w *frameWriter) send(appendPayload func(dst []byte) []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendPayload(append(w.buf[:0], 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
	_, err := w.bw.Write(w.buf)
	if err == nil {
		err = w.bw.Flush()
	}
	return err
}

// response sends one response frame from the serving side, where a failed
// write needs no handling: a dead peer surfaces as the read loop's error.
func (w *frameWriter) response(resp *wire.Response) {
	_ = w.send(func(dst []byte) []byte { return wire.AppendResponse(dst, resp) })
}
