package tenant

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refBucket is the naive reference token bucket the property test checks
// the production implementation against: float tokens, refill on every
// observation, no shortcuts.
type refBucket struct {
	capacity float64
	refill   float64
	tokens   float64
	lastNS   int64
}

func (b *refBucket) admit(nowNS int64, tokens int) bool {
	cost := math.Max(1, float64(tokens))
	if b.capacity <= 0 {
		return true
	}
	if el := nowNS - b.lastNS; el > 0 {
		b.tokens = math.Min(b.capacity, b.tokens+float64(el)*b.refill/1e9)
		b.lastNS = nowNS
	}
	if b.tokens >= cost {
		b.tokens -= cost
		return true
	}
	return false
}

// TestAdmitPropertyVsReference drives admitAt over seeded random
// interleavings of admissions and clock advances and requires the
// decision sequence to match the naive reference bucket exactly, the
// retry hint to stay within [1ms, 1h], and the admission counters to
// balance the decisions.
func TestAdmitPropertyVsReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			ID:           "prop",
			Capacity:     float64(rng.Intn(5000)),
			RefillPerSec: float64(rng.Intn(2000)),
			Weight:       1,
		}
		if seed%7 == 0 {
			cfg.Capacity = 0 // unlimited path
		}
		if seed%5 == 0 {
			cfg.RefillPerSec = 0 // never refills: retry hint must clamp to 1h
		}
		reg, err := NewRegistry(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tn := reg.Get("prop")
		// Align the reference clock with the record's configure-time stamp so
		// both buckets see identical elapsed intervals.
		tn.mu.Lock()
		now := tn.lastNS
		tn.mu.Unlock()
		ref := &refBucket{capacity: cfg.Capacity, refill: cfg.RefillPerSec, tokens: cfg.Capacity, lastNS: now}
		admits, rejects := 0, 0
		for step := 0; step < 2000; step++ {
			if rng.Intn(3) == 0 {
				now += rng.Int63n(int64(50 * time.Millisecond))
			}
			cost := rng.Intn(700) - 10 // occasionally <= 0: clamps to 1
			got, retry := tn.admitAt(now, cost)
			want := ref.admit(now, cost)
			if got != want {
				t.Fatalf("seed %d step %d: admitAt(now=%d, cost=%d) = %v, reference says %v",
					seed, step, now, cost, got, want)
			}
			if got {
				admits++
				if retry != 0 {
					t.Fatalf("seed %d step %d: admitted with retry hint %s", seed, step, retry)
				}
			} else {
				rejects++
				if retry < time.Millisecond || retry > time.Hour {
					t.Fatalf("seed %d step %d: retry hint %s outside [1ms, 1h]", seed, step, retry)
				}
				if cfg.RefillPerSec == 0 && retry != time.Hour {
					t.Fatalf("seed %d step %d: zero refill must hint 1h, got %s", seed, step, retry)
				}
			}
		}
		st := tn.Stat()
		if st.Admitted != int64(admits) || st.Rejected != int64(rejects) {
			t.Fatalf("seed %d: counters admitted=%d rejected=%d, decisions were %d/%d",
				seed, st.Admitted, st.Rejected, admits, rejects)
		}
		if cfg.Capacity <= 0 && rejects != 0 {
			t.Fatalf("seed %d: unlimited tenant rejected %d requests", seed, rejects)
		}
	}
}

// TestAdmitBurstAndRefill checks bucket shape directly: a full bucket
// serves exactly capacity/cost requests back-to-back, then refill
// restores budget at the configured rate.
func TestAdmitBurstAndRefill(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "a", Capacity: 1000, RefillPerSec: 100, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	tn := reg.Get("a")
	tn.mu.Lock()
	now := tn.lastNS
	tn.mu.Unlock()
	for i := 0; i < 10; i++ {
		if ok, _ := tn.admitAt(now, 100); !ok {
			t.Fatalf("burst request %d rejected with budget remaining", i)
		}
	}
	ok, retry := tn.admitAt(now, 100)
	if ok {
		t.Fatal("admitted past capacity without refill")
	}
	// 100 tokens at 100 tokens/sec is a 1s horizon.
	if retry < 900*time.Millisecond || retry > 1100*time.Millisecond {
		t.Fatalf("retry hint %s, want ~1s", retry)
	}
	now += int64(time.Second)
	if ok, _ := tn.admitAt(now, 100); !ok {
		t.Fatal("rejected after a full refill interval")
	}
}

func TestRateLimitErrorUnwrap(t *testing.T) {
	err := error(&RateLimitError{Tenant: "x", RetryAfter: 5 * time.Second})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatal("RateLimitError does not unwrap to ErrRateLimited")
	}
	var rl *RateLimitError
	if !errors.As(err, &rl) || rl.RetryAfter != 5*time.Second {
		t.Fatal("errors.As lost the retry hint")
	}
	if !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("error text %q does not name the tenant", err)
	}
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", Standard, true},
		{"standard", Standard, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"Interactive", 0, false},
		{"bulk", 0, false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseClass(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, c := range []Class{Standard, Interactive, Batch} {
		back, err := ParseClass(c.String())
		if err != nil || back != c {
			t.Errorf("ParseClass(%v.String()) = %v, %v", c, back, err)
		}
	}
}

func TestClassPolicy(t *testing.T) {
	slo := 150 * time.Millisecond
	if d := Interactive.DeadlineDefault(slo); d != slo {
		t.Errorf("interactive deadline default %s, want %s", d, slo)
	}
	if d := Standard.DeadlineDefault(slo); d != 0 {
		t.Errorf("standard deadline default %s, want 0", d)
	}
	if f := Batch.WindowFactor(); f != MaxWindowFactor {
		t.Errorf("batch window factor %v, want MaxWindowFactor %v", f, MaxWindowFactor)
	}
	if Interactive.WindowFactor() >= Standard.WindowFactor() {
		t.Error("interactive window must be shorter than standard")
	}
	if Interactive.PriorityBias() <= Standard.PriorityBias() ||
		Batch.PriorityBias() >= Standard.PriorityBias() {
		t.Error("priority bias must order interactive > standard > batch")
	}
}

func TestConfigValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"minimal", Config{ID: "a"}, true},
		{"full", Config{ID: "team-a.prod:eu_1", SLOClass: "batch", Capacity: 10, RefillPerSec: 5, Weight: 2}, true},
		{"empty id", Config{}, false},
		{"long id", Config{ID: strings.Repeat("x", MaxIDLen+1)}, false},
		{"max id", Config{ID: strings.Repeat("x", MaxIDLen)}, true},
		{"bad byte", Config{ID: "team a"}, false},
		{"utf8 id", Config{ID: "café"}, false},
		{"bad class", Config{ID: "a", SLOClass: "bulk"}, false},
		{"neg capacity", Config{ID: "a", Capacity: -1}, false},
		{"nan capacity", Config{ID: "a", Capacity: nan}, false},
		{"neg refill", Config{ID: "a", RefillPerSec: -1}, false},
		{"nan refill", Config{ID: "a", RefillPerSec: nan}, false},
		{"neg weight", Config{ID: "a", Weight: -1}, false},
		{"nan weight", Config{ID: "a", Weight: nan}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParseConfig(t *testing.T) {
	good := `{"tenants": [
		{"id": "a", "slo_class": "interactive", "capacity": 100, "refill_per_sec": 10, "weight": 4},
		{"id": "b"}
	]}`
	cfgs, err := ParseConfig([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].ID != "a" || cfgs[0].Capacity != 100 || cfgs[1].ID != "b" {
		t.Fatalf("parsed %+v", cfgs)
	}

	bad := []struct {
		name, in string
	}{
		{"unknown field", `{"tenants": [{"id": "a", "burst": 5}]}`},
		{"unknown top-level", `{"tenant": []}`},
		{"trailing data", `{"tenants": []} {"tenants": []}`},
		{"duplicate id", `{"tenants": [{"id": "a"}, {"id": "a"}]}`},
		{"invalid record", `{"tenants": [{"id": ""}]}`},
		{"not json", `tenants: []`},
	}
	for _, c := range bad {
		if _, err := ParseConfig([]byte(c.in)); err == nil {
			t.Errorf("%s: ParseConfig accepted %q", c.name, c.in)
		}
	}
}

func TestRegistryLookupAndDefault(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "a", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Get("a").ID(); got != "a" {
		t.Fatalf("Get(a) resolved %q", got)
	}
	// Empty and unknown ids fall back to the always-present default.
	for _, id := range []string{"", DefaultID, "nobody"} {
		if got := reg.Get(id).ID(); got != DefaultID {
			t.Fatalf("Get(%q) resolved %q, want default", id, got)
		}
	}
	if _, ok := reg.Lookup("nobody"); ok {
		t.Fatal("Lookup found an unregistered tenant")
	}
	if _, ok := reg.Lookup(DefaultID); !ok {
		t.Fatal("registry is missing the default record")
	}
	// The implicit default is unlimited.
	if ok, _ := reg.Get("nobody").Admit(1 << 20); !ok {
		t.Fatal("implicit default tenant rejected a request")
	}

	if _, err := NewRegistry(Config{ID: "a"}, Config{ID: "a"}); err == nil {
		t.Fatal("NewRegistry accepted duplicate ids")
	}
	if _, err := NewRegistry(Config{ID: "bad id"}); err == nil {
		t.Fatal("NewRegistry accepted an invalid config")
	}
}

// TestRegistryPutLiveUpdate checks the admin-API semantics: Put on an
// existing id rewires class/weight/bucket in place (same record), and a
// capacity cut clamps the bucket immediately.
func TestRegistryPutLiveUpdate(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "a", Capacity: 1000, RefillPerSec: 0, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	tn := reg.Get("a")
	if ok, _ := tn.Admit(10); !ok {
		t.Fatal("fresh bucket rejected")
	}
	upd := reg.Put(Config{ID: "a", SLOClass: "interactive", Capacity: 1, RefillPerSec: 0, Weight: 9})
	if upd != tn {
		t.Fatal("Put replaced the record instead of updating it")
	}
	if tn.Class() != Interactive || tn.Weight() != 9 {
		t.Fatalf("live update lost class/weight: %v/%v", tn.Class(), tn.Weight())
	}
	if ok, _ := tn.Admit(10); ok {
		t.Fatal("capacity cut did not clamp the bucket")
	}
	got := tn.Config()
	if got.SLOClass != "interactive" || got.Capacity != 1 || got.Weight != 9 {
		t.Fatalf("Config() = %+v", got)
	}
}

func TestWeightFloor(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "a"}) // weight omitted: 0
	if err != nil {
		t.Fatal(err)
	}
	if w := reg.Get("a").Weight(); w != 1 {
		t.Fatalf("unset weight resolved %v, want floor 1", w)
	}
}

func TestRegistryStatsSorted(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "zeta"}, Config{ID: "alpha"}, Config{ID: "mid"})
	if err != nil {
		t.Fatal(err)
	}
	reg.Get("zeta").Admit(1)
	reg.Get("zeta").RecordDispatched(42)
	stats := reg.Stats()
	if len(stats) != 4 { // three configured + default
		t.Fatalf("Stats returned %d records", len(stats))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].ID >= stats[i].ID {
			t.Fatalf("Stats not sorted: %q before %q", stats[i-1].ID, stats[i].ID)
		}
	}
	for _, s := range stats {
		if s.ID == "zeta" && (s.Admitted != 1 || s.Dispatched != 42) {
			t.Fatalf("zeta stat %+v", s)
		}
	}
}

// TestAdmitConcurrent hammers one limited and one unlimited tenant from
// many goroutines; under -race this audits the lock striping, and the
// counters must exactly partition the attempts.
func TestAdmitConcurrent(t *testing.T) {
	reg, err := NewRegistry(
		Config{ID: "lim", Capacity: 500, RefillPerSec: 1000},
		Config{ID: "unlim"},
	)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 500
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			id := "lim"
			if w%2 == 1 {
				id = "unlim"
			}
			tn := reg.Get(id)
			for i := 0; i < per; i++ {
				tn.Admit(10)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, id := range []string{"lim", "unlim"} {
		st := reg.Get(id).Stat()
		if st.Admitted+st.Rejected != workers/2*per {
			t.Fatalf("%s: admitted %d + rejected %d != attempts %d",
				id, st.Admitted, st.Rejected, workers/2*per)
		}
	}
	if st := reg.Get("unlim").Stat(); st.Rejected != 0 {
		t.Fatalf("unlimited tenant rejected %d", st.Rejected)
	}
}

func ExampleParseConfig() {
	cfgs, _ := ParseConfig([]byte(`{"tenants": [{"id": "team-a", "slo_class": "interactive", "weight": 4}]}`))
	fmt.Println(cfgs[0].ID, cfgs[0].SLOClass, cfgs[0].Weight)
	// Output: team-a interactive 4
}

// TestRegistryGetRacesPut: lookups of a registered id race Puts of new
// ids (the admin API's inserts) and must always see that id's own, fully
// configured record — never the default fallback, never a torn one — and
// every id whose Put has returned must resolve to its configured record.
// Run under -race it also audits the copy-on-write publication.
func TestRegistryGetRacesPut(t *testing.T) {
	reg, err := NewRegistry(Config{ID: "steady", SLOClass: "interactive", Capacity: 100, RefillPerSec: 10, Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Get("steady").Config()
	const puts = 200
	var published atomic.Int64 // ids new-0 .. new-(published-1) are in
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < puts; i++ {
			reg.Put(Config{ID: fmt.Sprintf("new-%d", i), Capacity: float64(i + 1), Weight: float64(i + 1)})
			published.Store(int64(i + 1))
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := reg.Get("steady"); got.ID() != "steady" || got.Config() != want {
					t.Errorf("Get(steady) = %+v, want %+v", got.Config(), want)
					return
				}
				if n := published.Load(); n > 0 {
					i := n - 1
					got := reg.Get(fmt.Sprintf("new-%d", i)).Config()
					if got.ID != fmt.Sprintf("new-%d", i) || got.Capacity != float64(i+1) || got.Weight != float64(i+1) {
						t.Errorf("Get(new-%d) after its Put = %+v", i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := len(reg.Stats()); got != puts+2 {
		t.Fatalf("registry holds %d records, want %d", got, puts+2)
	}
}
