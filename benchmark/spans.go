package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the harness around its calls into each layer
// (spans inside the program are a later change). They stay in memory and
// are written once, when the benchmark ends.

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the run started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// maxSpans bounds the trace kept per workload; a closed loop at 50k req/s
// would otherwise write hundreds of megabytes.
const maxSpans = 60000

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (t *tracer) add(parent, req int64, name string, start, end time.Duration) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNS: int64(start), EndNS: int64(end)})
	return id
}

// end closes a span opened with a zero end (no-op for a dropped span).
func (t *tracer) end(id int64, end time.Duration) {
	t.mu.Lock()
	if id > 0 {
		t.spans[id-1].EndNS = int64(end)
	}
	t.mu.Unlock()
}

// request records one load-generator request: the root span (due ->
// reply) with children loadgen.send_wait and socket, and under socket the
// stages the reply itself reports, laid back to back from the send.
func (t *tracer) request(id int64, runStart, due, sent, done time.Time, s *sample) {
	at := func(x time.Time) time.Duration { return x.Sub(runStart) }
	root := t.add(0, id, "request", at(due), at(done))
	t.add(root, id, "loadgen.send_wait", at(due), at(sent))
	sock := t.add(root, id, "socket", at(sent), at(done))
	if s.outcome != ok {
		return
	}
	ms := func(v float32) time.Duration { return time.Duration(float64(v) * float64(time.Millisecond)) }
	q0 := at(sent)
	t.add(sock, id, "queue", q0, q0+ms(s.queueMS))
	t.add(sock, id, "exec", q0+ms(s.queueMS), q0+ms(s.queueMS)+ms(s.execMS))
	if s.ttftMS > 0 {
		t.add(sock, id, "ttft", q0, q0+ms(s.ttftMS))
	}
}

// selfTime is a span's duration minus the part of it its children cover:
// overlapping children are merged and clipped to the parent first, so
// time two children share is subtracted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.StartNS, c.EndNS
		if lo < parent.StartNS {
			lo = parent.StartNS
		}
		if hi > parent.EndNS {
			hi = parent.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		if v.lo < edge {
			v.lo = edge
		}
		covered += v.hi - v.lo
		edge = v.hi
	}
	return parent.EndNS - parent.StartNS - covered
}

// selfTimes returns, per span name, the self time of every span of that
// name in nanoseconds.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(selfTime(s, kids[s.ID])))
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Envelope envelope `json:"envelope"`
	Workload string   `json:"workload"`
	// SelfUS is the median self time per span name, in microseconds.
	SelfUS  map[string]float64 `json:"self_us_p50"`
	Dropped int                `json:"spans_dropped"`
	Spans   []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, env envelope) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Envelope: env, Workload: workload, Dropped: t.dropped, Spans: t.spans,
		SelfUS: make(map[string]float64)}
	for name, ns := range selfTimes(t.spans) {
		tf.SelfUS[name] = median(ns) / 1e3
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
