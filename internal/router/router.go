// Package router is the stateless routing tier fronting N arlo-server
// shards: clients talk to the router over the same two protocols a
// single server speaks (JSON HTTP and internal/wire frames) — through the
// same code, serve.Frontend, with the Router as its backend — and the
// router forwards each request to one shard over a pipelined wire
// connection (a serve.WireClient), choosing the shard with length-aware
// least-loaded scoring against periodically refreshed load snapshots.
//
// The staleness trade-off is explicit: snapshots refresh asynchronously
// every SnapshotRefreshInterval (the exemplar systems' config knob)
// rather than being queried per request, so the router's view lags
// reality by up to one interval. Two mechanisms keep routing sane under
// that lag — power-of-two-choices sampling (score two random candidates,
// take the better, so stale minima cannot herd every request onto one
// shard) and a local in-flight correction (requests this router routed
// since the snapshot was taken are added to the score).
//
// Shard failover follows steps 2 and 3 of the cluster's failure rule
// (queue.PickVictim) at tier level: a request whose shard dies
// mid-flight or answers StatusUnavailable re-routes to another shard
// under a bounded hop budget (queue.DefaultRequeueBudget by default);
// when the budget is
// spent or no serviceable shard remains, the client gets a typed
// unserviceable error, never a silent drop. Every other shard answer —
// rate_limited with its Retry-After hint, unserviceable, congested,
// too_long, deadline_exceeded, invalid — passes through verbatim.
package router

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/queue"
	"arlo/internal/serve"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

// Policy selects how the router picks a shard for each request.
type Policy uint8

const (
	// PolicyLengthAware scores the request's length bucket against each
	// candidate's snapshot (depth x padded-length over instances, plus a
	// discounted spillover term for the other buckets and the router's
	// own in-flight count), sampling two candidates power-of-two-choices
	// style. The default.
	PolicyLengthAware Policy = iota
	// PolicyRoundRobin rotates through serviceable shards, blind to load.
	PolicyRoundRobin
	// PolicyLeastLoaded picks the snapshot's global minimum outstanding
	// count — deliberately naive (no sampling, no local correction), the
	// baseline that herds under stale snapshots.
	PolicyLeastLoaded
)

// String returns the flag-friendly policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLengthAware:
		return "length-aware"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastLoaded:
		return "least-loaded"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses a policy name as accepted by the -policy flag.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "length-aware", "la":
		return PolicyLengthAware, nil
	case "round-robin", "rr":
		return PolicyRoundRobin, nil
	case "least-loaded", "ll":
		return PolicyLeastLoaded, nil
	}
	return 0, fmt.Errorf("router: unknown policy %q (want length-aware, round-robin or least-loaded)", s)
}

// DefaultSnapshotRefresh is the load-snapshot refresh interval a zero
// Config.SnapshotRefreshInterval selects, and arlo-router's
// -snapshot-refresh default.
const DefaultSnapshotRefresh = 100 * time.Millisecond

// ShardConfig names one shard and its wire-protocol address.
type ShardConfig struct {
	// Name labels the shard in metrics and health output; defaults to
	// Addr when empty.
	Name string
	// Addr is the shard's binary wire listener (host:port).
	Addr string
}

// Config configures a Router.
type Config struct {
	// Shards are the shards to front. At least one is required.
	Shards []ShardConfig
	// Policy is the shard-selection policy (default PolicyLengthAware).
	Policy Policy
	// SnapshotRefreshInterval is how often each shard's load snapshot is
	// refreshed in the background (<= 0: DefaultSnapshotRefresh).
	SnapshotRefreshInterval time.Duration
	// HopBudget bounds how many times one request may re-route after
	// transport failures or unavailable shards (0 =
	// queue.DefaultRequeueBudget).
	HopBudget int
	// MaxLength caps router-side tokenization (0 = 512). Keep it at the
	// shards' model max length so the router and shards bucket requests
	// identically.
	MaxLength int
	// Seed seeds the power-of-two-choices sampler (0 = 1); fixed seeds
	// make routing decisions reproducible in tests.
	Seed int64
}

// shard is the router's per-shard state: the dialed connection, the last
// load snapshot, and the local counters that correct for snapshot lag.
type shard struct {
	name string
	addr string

	// connMu guards conn replacement; the client itself is safe for
	// pipelined concurrent use. Every forwarded request and load probe to
	// the shard shares it, under connection-local ids.
	connMu sync.Mutex
	conn   *serve.WireClient

	// snap is the latest load snapshot with its receipt time.
	snap atomic.Pointer[snapEntry]
	// down marks the shard unreachable (dial or transport failure) until
	// a probe succeeds again.
	down atomic.Bool

	// inflight counts requests this router currently has outstanding on
	// the shard — the local correction added to snapshot scores.
	inflight atomic.Int64
	// requests counts requests ever routed to the shard.
	requests atomic.Uint64
}

type snapEntry struct {
	snap wire.LoadSnapshot
	at   time.Time
}

// Router fronts a set of shards: the serve.Backend behind its embedded
// Frontend, which supplies the /v1/infer and /v1/generate handlers and
// ServeWire. It is an http.Handler.
type Router struct {
	*serve.Frontend
	cfg    Config
	tok    *tokenizer.Tokenizer
	shards []*shard
	mux    *http.ServeMux

	rngMu sync.Mutex
	rng   *rand.Rand

	rr        atomic.Uint64 // round-robin cursor
	reroutes  atomic.Uint64 // total reroute hops taken
	routeHist histogram     // route-stage latency

	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds a router over cfg's shards and starts one background
// snapshot refresh loop per shard; Close stops them.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	if cfg.HopBudget == 0 {
		cfg.HopBudget = queue.DefaultRequeueBudget
	}
	if cfg.HopBudget < 1 {
		return nil, fmt.Errorf("router: hop budget must be >= 1, got %d", cfg.HopBudget)
	}
	if cfg.MaxLength == 0 {
		cfg.MaxLength = 512
	}
	if cfg.MaxLength < 2 {
		return nil, fmt.Errorf("router: max length must be >= 2, got %d", cfg.MaxLength)
	}
	if cfg.SnapshotRefreshInterval <= 0 {
		cfg.SnapshotRefreshInterval = DefaultSnapshotRefresh
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Router{
		cfg:  cfg,
		tok:  tokenizer.New(),
		rng:  rand.New(rand.NewSource(seed)),
		mux:  http.NewServeMux(),
		stop: make(chan struct{}),
	}
	r.Frontend = serve.NewFrontend(r)
	seen := make(map[string]bool, len(cfg.Shards))
	for _, sc := range cfg.Shards {
		if sc.Addr == "" {
			return nil, fmt.Errorf("router: shard %q has no address", sc.Name)
		}
		name := sc.Name
		if name == "" {
			name = sc.Addr
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", name)
		}
		seen[name] = true
		r.shards = append(r.shards, &shard{name: name, addr: sc.Addr})
	}
	r.mux.HandleFunc("/v1/infer", r.HandleInfer)
	r.mux.HandleFunc("/v1/generate", r.HandleGenerate)
	r.mux.HandleFunc("/healthz", r.handleHealth)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	for _, sh := range r.shards {
		r.wg.Add(1)
		go r.refreshLoop(sh)
	}
	return r, nil
}

// Close stops the refresh loops, the wire listeners and every shard
// connection. Idempotent.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		_ = r.Frontend.Close()
		for _, sh := range r.shards {
			sh.connMu.Lock()
			if sh.conn != nil {
				_ = sh.conn.Close()
				sh.conn = nil
			}
			sh.connMu.Unlock()
		}
		r.wg.Wait()
	})
	return nil
}

// Reroutes returns the total reroute hops the router has taken.
func (r *Router) Reroutes() uint64 { return r.reroutes.Load() }

// dialWire dials a shard; tests swap it to inject dial failures and to
// watch or redirect dials.
var dialWire = serve.DialWireContext

// probeTimeout bounds a shard dial and a load probe alike. It does not
// depend on the refresh interval, which sets only how often a probe runs:
// a shard that answers slower than the interval is slow, not down.
const probeTimeout = time.Second

// getConn returns the shard's live connection, dialing (for at most
// probeTimeout) when absent or dead. A dial failure marks the shard down.
func (sh *shard) getConn() (*serve.WireClient, error) {
	sh.connMu.Lock()
	defer sh.connMu.Unlock()
	if sh.conn != nil && sh.conn.Alive() {
		return sh.conn, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	c, err := dialWire(ctx, sh.addr)
	if err != nil {
		sh.down.Store(true)
		return nil, err
	}
	sh.conn = c
	sh.down.Store(false)
	return c, nil
}

// refreshLoop polls one shard's load snapshot every refresh interval; it
// doubles as the health probe, flipping the shard's down bit on transport
// failures and back on recovery.
func (r *Router) refreshLoop(sh *shard) {
	defer r.wg.Done()
	// First refresh happens immediately so routing does not start blind.
	r.refreshShard(sh)
	t := time.NewTicker(r.cfg.SnapshotRefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.refreshShard(sh)
		}
	}
}

// refreshShard fetches one load snapshot, storing it (and clearing the
// down bit) on success.
func (r *Router) refreshShard(sh *shard) {
	c, err := sh.getConn()
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	snap, err := c.Load(ctx)
	if err != nil {
		sh.down.Store(true)
		return
	}
	sh.snap.Store(&snapEntry{snap: snap, at: time.Now()})
	sh.down.Store(false)
}

// snapshot returns the shard's latest load snapshot (nil when none has
// arrived yet).
func (sh *shard) snapshot() *snapEntry { return sh.snap.Load() }

// candidates collects the shards worth trying for this request: not
// already tried this request, not known-down, and not reporting zero
// serving instances. With every shard filtered out it falls back to the
// untried ones regardless of health, so a fully-stale view cannot wedge
// routing while shards recover.
func (r *Router) candidates(tried []bool) []int {
	out := make([]int, 0, len(r.shards))
	for i, sh := range r.shards {
		if tried[i] || sh.down.Load() {
			continue
		}
		if e := sh.snapshot(); e != nil && !e.snap.Serviceable() {
			continue
		}
		out = append(out, i)
	}
	if len(out) == 0 {
		for i := range r.shards {
			if !tried[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

// pick chooses the next shard index for a request of the given token
// length (-1 when every shard has been tried).
func (r *Router) pick(length int, tried []bool) int {
	cand := r.candidates(tried)
	if len(cand) == 0 {
		return -1
	}
	if len(cand) == 1 {
		return cand[0]
	}
	switch r.cfg.Policy {
	case PolicyRoundRobin:
		return cand[int(r.rr.Add(1))%len(cand)]
	case PolicyLeastLoaded:
		best, bestDepth := cand[0], int64(1)<<62
		for _, i := range cand {
			var depth int64
			if e := r.shards[i].snapshot(); e != nil {
				for _, lv := range e.snap.Levels {
					depth += int64(lv.Depth)
				}
			}
			if depth < bestDepth {
				best, bestDepth = i, depth
			}
		}
		return best
	default: // PolicyLengthAware
		a, b := r.twoOf(cand)
		if r.score(r.shards[b], length) < r.score(r.shards[a], length) {
			return b
		}
		return a
	}
}

// twoOf samples two distinct candidate indices; cand holds at least two.
func (r *Router) twoOf(cand []int) (int, int) {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	i := r.rng.Intn(len(cand))
	j := r.rng.Intn(len(cand) - 1)
	if j >= i {
		j++
	}
	return cand[i], cand[j]
}

// spilloverDiscount weights the load of buckets other than the request's
// own in the score: congestion elsewhere matters (demotion spills work
// across levels inside a shard) but less than congestion at the bucket
// the request will actually queue at.
const spilloverDiscount = 0.25

// score estimates the cost of sending a request of the given length to
// the shard: the request's bucket dominates (depth x padded length over
// the bucket's instances), other buckets contribute discounted spillover,
// and the router's own in-flight count toward the shard corrects for
// work the snapshot has not seen yet.
func (r *Router) score(sh *shard, length int) float64 {
	e := sh.snapshot()
	if e == nil {
		// No snapshot yet: only the local in-flight estimate.
		return float64(sh.inflight.Load())
	}
	s := &e.snap
	var cost float64
	bucket := -1
	totalInst := 0
	for i := range s.Levels {
		totalInst += int(s.Levels[i].Instances)
		if bucket < 0 && int(s.Levels[i].MaxLength) >= length {
			bucket = i
		}
	}
	if bucket < 0 && len(s.Levels) > 0 {
		bucket = len(s.Levels) - 1 // over-long requests bucket at the top
	}
	for i := range s.Levels {
		lv := &s.Levels[i]
		inst := float64(lv.Instances)
		if inst < 1 {
			inst = 1
		}
		lvCost := float64(lv.Depth) * float64(lv.MaxLength) / inst
		if i == bucket {
			cost += lvCost
		} else {
			cost += spilloverDiscount * lvCost
		}
	}
	// The local correction: charge each un-snapshotted in-flight request
	// the bucket's padded length spread over the shard's instances.
	bucketLen := float64(r.cfg.MaxLength)
	if bucket >= 0 {
		bucketLen = float64(s.Levels[bucket].MaxLength)
	}
	if totalInst < 1 {
		totalInst = 1
	}
	cost += float64(sh.inflight.Load()) * bucketLen / float64(totalInst)
	return cost
}
