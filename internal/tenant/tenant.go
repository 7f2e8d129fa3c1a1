// Package tenant implements multi-tenant serving policy for the live
// cluster: a registry of tenant records (identity, SLO class, token-bucket
// admission budget, fair-share weight) consulted on every submit path.
//
// The registry sits *in front* of the cluster queue: admission runs before
// a request touches the multi-level queue or the ingress rings, so a
// bursting tenant is rejected at the door (HTTP 429 / wire
// StatusRateLimited with a Retry-After hint) instead of congesting the
// dispatch order and triggering Algorithm 1 demotions for everyone else.
//
// Hot-path constraints: resolving a record is one atomic load of the
// registry's copy-on-write map and a map read, Admit one per-tenant mutex
// for the bucket arithmetic; neither allocates. Tenants with Capacity == 0
// are unlimited and skip the bucket arithmetic — the implicit "default"
// tenant is unlimited unless configured otherwise.
package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultID is the tenant every request without an explicit tenant
// identity is accounted to. The registry always holds a record for it.
const DefaultID = "default"

// MaxIDLen bounds tenant identifiers: they travel in a single length byte
// in wire V2 frames and become metric label values, so they stay short.
const MaxIDLen = 128

// ErrRateLimited is the typed admission-rejection sentinel: the tenant's
// token bucket had insufficient budget. Wrapped by RateLimitError so
// callers can recover the Retry-After hint with errors.As.
var ErrRateLimited = errors.New("tenant: rate limited")

// RateLimitError is the concrete admission rejection: it satisfies
// errors.Is(err, ErrRateLimited) and carries the bucket's refill horizon.
type RateLimitError struct {
	// Tenant is the resolved tenant the rejection is accounted to.
	Tenant string
	// RetryAfter estimates when the bucket will hold enough tokens for the
	// rejected request, bounded to [1ms, 1h].
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("tenant %q rate limited, retry after %s", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrRateLimited) hold.
func (e *RateLimitError) Unwrap() error { return ErrRateLimited }

// Class is a tenant's SLO class. Classes map to per-class deadline
// defaults, batching-window policy and queue-priority bias:
//
//	class        deadline default  batch window  priority bias
//	interactive  the model SLO     0.25x         2.0
//	standard     none              1x            1.0
//	batch        none              4x            0.5
//
// The deadline default bounds the batch-collection window for requests
// submitted without a context deadline; the window factor scales the
// Former's collection window per member; the bias multiplies the tenant's
// fair-share weight in the dispatch order.
type Class uint8

const (
	// Standard is the zero-value class: the behavior every request had
	// before multi-tenancy existed.
	Standard Class = iota
	// Interactive requests get the model SLO as an implicit deadline and a
	// shortened batch-collection window.
	Interactive
	// Batch requests tolerate a stretched collection window in exchange
	// for better batching amortization, and yield dispatch priority.
	Batch
)

// MaxWindowFactor is the largest Class.WindowFactor — the batched worker
// sizes its Former's MaxDelay by it so batch-class members can stretch
// the window.
const MaxWindowFactor = 4.0

// ParseClass parses a config string; the empty string is Standard.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "standard":
		return Standard, nil
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return Standard, fmt.Errorf("tenant: unknown slo class %q", s)
}

func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return "standard"
}

// DeadlineDefault is the implicit deadline (in modeled time) applied to
// requests of this class submitted without a context deadline; zero means
// no implicit deadline. slo is the deployment's service objective.
func (c Class) DeadlineDefault(slo time.Duration) time.Duration {
	if c == Interactive {
		return slo
	}
	return 0
}

// WindowFactor scales the batch-collection window for members of this
// class.
func (c Class) WindowFactor() float64 {
	switch c {
	case Interactive:
		return 0.25
	case Batch:
		return MaxWindowFactor
	}
	return 1
}

// PriorityBias multiplies the tenant's fair-share weight in dispatch
// ordering.
func (c Class) PriorityBias() float64 {
	switch c {
	case Interactive:
		return 2
	case Batch:
		return 0.5
	}
	return 1
}

// Config is one tenant record as configured (the -tenants-config file
// schema and the PUT /v1/tenants/{id} body).
type Config struct {
	// ID identifies the tenant (required in config files; implied by the
	// URL path on the admin API).
	ID string `json:"id"`
	// SLOClass is "interactive", "standard" (default) or "batch".
	SLOClass string `json:"slo_class,omitempty"`
	// Capacity is the token-bucket burst capacity in tokens (input +
	// requested output tokens). 0 means unlimited: admission always passes.
	Capacity float64 `json:"capacity,omitempty"`
	// RefillPerSec is the bucket's sustained refill rate in tokens/second.
	RefillPerSec float64 `json:"refill_per_sec,omitempty"`
	// Weight is the tenant's fair-share weight in dispatch ordering
	// (default 1 when <= 0).
	Weight float64 `json:"weight,omitempty"`
}

// Validate checks a single record.
func (c Config) Validate() error {
	if c.ID == "" {
		return errors.New("tenant: empty id")
	}
	if len(c.ID) > MaxIDLen {
		return fmt.Errorf("tenant: id longer than %d bytes", MaxIDLen)
	}
	for i := 0; i < len(c.ID); i++ {
		b := c.ID[i]
		ok := b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' ||
			b == '-' || b == '_' || b == '.' || b == ':'
		if !ok {
			return fmt.Errorf("tenant: id %q contains invalid byte %q", c.ID, b)
		}
	}
	if _, err := ParseClass(c.SLOClass); err != nil {
		return err
	}
	if c.Capacity < 0 || c.Capacity != c.Capacity {
		return fmt.Errorf("tenant %q: negative or NaN capacity", c.ID)
	}
	if c.RefillPerSec < 0 || c.RefillPerSec != c.RefillPerSec {
		return fmt.Errorf("tenant %q: negative or NaN refill_per_sec", c.ID)
	}
	if c.Weight < 0 || c.Weight != c.Weight {
		return fmt.Errorf("tenant %q: negative or NaN weight", c.ID)
	}
	return nil
}

// configFile is the -tenants-config file schema:
//
//	{"tenants": [{"id": "...", "slo_class": "...", "capacity": 0,
//	              "refill_per_sec": 0, "weight": 0}, ...]}
type configFile struct {
	Tenants []Config `json:"tenants"`
}

// ParseConfig strictly decodes a tenants config file and validates every
// record (unknown fields, trailing data and duplicate ids are errors).
func ParseConfig(data []byte) ([]Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f configFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tenant: parse config: %w", err)
	}
	if dec.More() {
		return nil, errors.New("tenant: parse config: trailing data after document")
	}
	seen := make(map[string]bool, len(f.Tenants))
	for _, c := range f.Tenants {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("tenant: duplicate id %q", c.ID)
		}
		seen[c.ID] = true
	}
	return f.Tenants, nil
}

// Tenant is one live tenant record. All methods are safe for concurrent
// use; Admit and the policy accessors allocate nothing.
type Tenant struct {
	id    string
	base  time.Time // monotonic epoch shared with the registry
	class atomic.Uint32
	// weight holds math.Float64bits of the fair-share weight.
	weight atomic.Uint64

	// bucket state, guarded by mu. capacity <= 0 means unlimited.
	mu       sync.Mutex
	capacity float64
	refill   float64 // tokens per second
	tokens   float64
	lastNS   int64

	admitted   atomic.Int64
	rejected   atomic.Int64
	dispatched atomic.Int64 // cumulative token cost handed to workers
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string { return t.id }

// Class returns the tenant's SLO class.
func (t *Tenant) Class() Class { return Class(t.class.Load()) }

// Weight returns the tenant's fair-share weight (>= a small positive
// floor, so stride arithmetic never divides by zero).
func (t *Tenant) Weight() float64 {
	w := math.Float64frombits(t.weight.Load())
	if w <= 0 {
		return 1
	}
	return w
}

// Admit runs token-bucket admission for a request costing the given
// number of tokens (input length + requested output tokens). ok reports
// admission; on rejection retryAfter estimates when the bucket will hold
// enough budget. Allocation-free.
func (t *Tenant) Admit(tokens int) (ok bool, retryAfter time.Duration) {
	return t.admitAt(int64(time.Since(t.base)), tokens)
}

// admitAt is Admit against an explicit monotonic clock (nanoseconds since
// the registry epoch) — the deterministic entry point tests drive.
func (t *Tenant) admitAt(nowNS int64, tokens int) (bool, time.Duration) {
	cost := float64(tokens)
	if cost < 1 {
		cost = 1
	}
	t.mu.Lock()
	if t.capacity <= 0 { // unlimited
		t.mu.Unlock()
		t.admitted.Add(1)
		return true, 0
	}
	if el := nowNS - t.lastNS; el > 0 {
		t.tokens += float64(el) * t.refill / 1e9
		if t.tokens > t.capacity {
			t.tokens = t.capacity
		}
		t.lastNS = nowNS
	}
	if t.tokens >= cost {
		t.tokens -= cost
		t.mu.Unlock()
		t.admitted.Add(1)
		return true, 0
	}
	need := cost - t.tokens
	refill := t.refill
	t.mu.Unlock()
	t.rejected.Add(1)
	retry := time.Hour
	if refill > 0 {
		retry = time.Duration(need / refill * 1e9)
	}
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	if retry > time.Hour {
		retry = time.Hour
	}
	return false, retry
}

// RecordDispatched accounts token cost handed to a worker in fair-share
// order — the numerator of the arlo_tenant_queue_share gauge.
func (t *Tenant) RecordDispatched(tokens int) {
	if tokens < 1 {
		tokens = 1
	}
	t.dispatched.Add(int64(tokens))
}

// configure (re)applies a validated Config to the live record. The bucket
// starts (or is clamped) full-to-capacity so a capacity cut takes effect
// immediately and a fresh tenant can burst.
func (t *Tenant) configure(c Config) {
	cl, _ := ParseClass(c.SLOClass)
	t.class.Store(uint32(cl))
	t.weight.Store(math.Float64bits(c.Weight))
	t.mu.Lock()
	t.capacity = c.Capacity
	t.refill = c.RefillPerSec
	if t.tokens > t.capacity || t.lastNS == 0 {
		t.tokens = t.capacity
	}
	if t.lastNS == 0 {
		t.lastNS = int64(time.Since(t.base))
	}
	t.mu.Unlock()
}

// Config returns the record's current configuration.
func (t *Tenant) Config() Config {
	t.mu.Lock()
	cap, refill := t.capacity, t.refill
	t.mu.Unlock()
	return Config{
		ID:           t.id,
		SLOClass:     t.Class().String(),
		Capacity:     cap,
		RefillPerSec: refill,
		Weight:       math.Float64frombits(t.weight.Load()),
	}
}

// Stat is one tenant's scrape-time accounting snapshot.
type Stat struct {
	ID         string
	Class      Class
	Admitted   int64
	Rejected   int64
	Dispatched int64 // cumulative dispatched token cost
}

// Registry holds the live tenant records in a copy-on-write map: lookups
// read the current map through one atomic load, and Put — called only at
// construction and by the admin API — publishes a copy with the new
// record. Every workload runs a handful of tenants, so the copy is cheap
// and the read path takes no lock at all. Lookups for unknown tenants
// fall back to the DefaultID record (always present), which both bounds
// metric cardinality and gives unregistered clients a policed shared
// budget.
type Registry struct {
	base time.Time
	mu   sync.Mutex // serializes Put
	m    atomic.Pointer[map[string]*Tenant]
	def  *Tenant
}

// NewRegistry builds a registry from validated configs. A DefaultID
// record (unlimited, standard, weight 1) is added when the configs don't
// provide one.
func NewRegistry(cfgs ...Config) (*Registry, error) {
	r := &Registry{base: time.Now()}
	r.m.Store(&map[string]*Tenant{})
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.Lookup(c.ID); dup {
			return nil, fmt.Errorf("tenant: duplicate id %q", c.ID)
		}
		r.Put(c)
	}
	var ok bool
	if r.def, ok = r.Lookup(DefaultID); !ok {
		r.def = r.Put(Config{ID: DefaultID})
	}
	return r, nil
}

// Get resolves a request's tenant id to its record; the empty string and
// unknown ids resolve to the DefaultID record. Allocation-free.
func (r *Registry) Get(id string) *Tenant {
	if t, ok := r.Lookup(id); ok {
		return t
	}
	return r.def
}

// Lookup resolves an id without the default fallback — the admin GET
// path, where an unknown tenant is a 404.
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	t, ok := (*r.m.Load())[id]
	return t, ok
}

// Put inserts or live-updates a tenant record and returns it. The config
// must already be validated. A new record is configured before it is
// published, so no lookup sees it half set up.
func (r *Registry) Put(c Config) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.m.Load()
	if t := old[c.ID]; t != nil {
		t.configure(c)
		return t
	}
	t := &Tenant{id: c.ID, base: r.base}
	t.configure(c)
	m := make(map[string]*Tenant, len(old)+1)
	for id, o := range old {
		m[id] = o
	}
	m[c.ID] = t
	r.m.Store(&m)
	return t
}

// Stat snapshots one tenant's admission/dispatch books.
func (t *Tenant) Stat() Stat {
	return Stat{
		ID:         t.id,
		Class:      t.Class(),
		Admitted:   t.admitted.Load(),
		Rejected:   t.rejected.Load(),
		Dispatched: t.dispatched.Load(),
	}
}

// Stats snapshots every tenant's admission/dispatch books, sorted by id —
// the source of arlo_admission_total and arlo_tenant_queue_share.
func (r *Registry) Stats() []Stat {
	var out []Stat
	for _, t := range *r.m.Load() {
		out = append(out, t.Stat())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
