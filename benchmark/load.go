package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator. A closed loop runs one goroutine per connection,
// each with one request in flight; an open loop runs one pacer per stream
// that releases each request when it is due, whatever the system is doing,
// and times it from that due instant.

type outcome uint8

const (
	ok outcome = iota
	refused
	failed
)

// sample is one finished request. Durations from the reply are converted
// to wall-clock milliseconds.
type sample struct {
	at      time.Duration // due time, offset from the measured window's start
	lat     time.Duration // due -> reply
	late    time.Duration // due -> actually sent (open loop)
	queueMS float32
	execMS  float32
	srvMS   float32 // server-reported latency
	ttftMS  float32 // server-reported
	tpotMS  float32
	batch   uint8
	hops    uint8
	outcome outcome
	stream  uint8
}

// counters is a snapshot of the process-wide figures the run is billed
// for; the measured window's cost is the difference of two snapshots.
type counters struct {
	at       time.Time
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	cpu      time.Duration
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		at:       time.Now(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// runData is everything one load phase produced.
type runData struct {
	samples       []sample
	window        time.Duration
	before, after counters
	inflightAtEnd int64
}

// loadRun drives one phase (warm-up + measured window) over a stack.
type loadRun struct {
	st      *stack
	in      *inputs
	checker *checker
	tr      *tracer // nil unless this is the traced replay
	warm    time.Duration
	measure time.Duration

	start    time.Time // run start; the measured window starts at start+warm
	inflight atomic.Int64
}

// one sends a request, checks the reply and returns its sample.
func (lr *loadRun) one(c *conn, rq request, due time.Time, id int64) sample {
	sent := time.Now()
	rep, err := c.send(context.Background(), lr.in.pool[rq.pool].text, rq.budget)
	done := time.Now()
	scale := lr.st.w.timeScale
	s := sample{
		at:      due.Sub(lr.start) - lr.warm,
		lat:     done.Sub(due),
		late:    sent.Sub(due),
		queueMS: float32(rep.queueMS * scale),
		execMS:  float32(rep.execMS * scale),
		srvMS:   float32(rep.latencyMS * scale),
		ttftMS:  float32(rep.ttftMS * scale),
		tpotMS:  float32(rep.tpotMS * scale),
		batch:   uint8(rep.batchSize),
		hops:    uint8(rep.hops),
		stream:  uint8(rq.stream),
		outcome: lr.checker.check(lr.st.w, rq, &rep, err),
	}
	if lr.tr != nil {
		lr.tr.request(id, lr.start, due, sent, done, &s)
	}
	return s
}

func (lr *loadRun) run() (*runData, error) {
	lr.start = time.Now()
	windowStart := lr.start.Add(lr.warm)
	end := windowStart.Add(lr.measure)

	// The counters are read at the window's two edges by a goroutine of
	// their own, so the load itself never pauses for them.
	rd := &runData{}
	var edges sync.WaitGroup
	edges.Add(1)
	go func() {
		defer edges.Done()
		time.Sleep(time.Until(windowStart))
		rd.before = readCounters()
		time.Sleep(time.Until(end))
		rd.inflightAtEnd = lr.inflight.Load()
		rd.after = readCounters()
	}()

	var perWorker [][]sample
	if lr.st.w.open() {
		perWorker = lr.openLoop()
	} else {
		perWorker = lr.closedLoop(end)
	}
	edges.Wait()
	rd.window = rd.after.at.Sub(rd.before.at)
	for _, ws := range perWorker {
		for _, s := range ws {
			// Only requests due inside the window are measured; warm-up
			// and anything a closed loop started past the end are not.
			if s.at >= 0 && s.at < lr.measure {
				rd.samples = append(rd.samples, s)
			}
		}
	}
	if len(rd.samples) == 0 {
		return nil, fmt.Errorf("%s: no request fell inside the measured window", lr.st.w.name)
	}
	return rd, nil
}

func (lr *loadRun) closedLoop(end time.Time) [][]sample {
	out := make([][]sample, len(lr.st.conns))
	var wg sync.WaitGroup
	for ci, c := range lr.st.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			samples := make([]sample, 0, 1<<16)
			for i := ci; ; i += len(lr.st.conns) {
				now := time.Now()
				if !now.Before(end) {
					break
				}
				rq := request{pool: i % poolSize}
				lr.inflight.Add(1)
				samples = append(samples, lr.one(c, rq, now, int64(i)))
				lr.inflight.Add(-1)
			}
			out[ci] = samples
		}(ci, c)
	}
	wg.Wait()
	return out
}

func sleepUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// maxInflight caps an open loop's concurrent requests per stream; a pacer
// that hits it blocks, which shows as lateness and fails the run.
const maxInflight = 2048

func (lr *loadRun) openLoop() [][]sample {
	out := make([][]sample, len(lr.st.conns))
	var pacers sync.WaitGroup
	for si, c := range lr.st.conns {
		pacers.Add(1)
		go func(si int, c *conn) {
			defer pacers.Done()
			sched := append(append([]request(nil), lr.in.warm[si]...), lr.in.measured[si]...)
			samples := make([]sample, len(sched))
			sem := make(chan struct{}, maxInflight)
			var wg sync.WaitGroup
			// The pacer sleeps in nanosleep on a thread of its own: the Go
			// runtime's timers are only millisecond-accurate while its
			// processors idle, which would make half the sends late.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i, rq := range sched {
				due := lr.start.Add(rq.due)
				sleepUntil(due)
				sem <- struct{}{}
				wg.Add(1)
				lr.inflight.Add(1)
				go func(i int, rq request) {
					defer wg.Done()
					samples[i] = lr.one(c, rq, due, int64(si)<<32|int64(i))
					lr.inflight.Add(-1)
					<-sem
				}(i, rq)
			}
			wg.Wait()
			out[si] = samples
		}(si, c)
	}
	pacers.Wait()
	return out
}
