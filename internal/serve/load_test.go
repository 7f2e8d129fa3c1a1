package serve

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
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

func TestLoadSnapshotShape(t *testing.T) {
	srv, cl := testServer(t)
	srv.shard = "shard-test"
	snap := srv.LoadSnapshot()
	if snap.Shard != "shard-test" {
		t.Errorf("shard = %q", snap.Shard)
	}
	if snap.Seq != 1 {
		t.Errorf("seq = %d, want 1", snap.Seq)
	}
	if got := srv.LoadSnapshot().Seq; got != 2 {
		t.Errorf("second seq = %d, want 2", got)
	}
	if int(snap.Healthy) != cl.Instances() {
		t.Errorf("healthy = %d, want %d", snap.Healthy, cl.Instances())
	}
	if want := len(model.BertBaseArch.RuntimeLengths()); len(snap.Levels) != want {
		t.Fatalf("levels = %d, want %d", len(snap.Levels), want)
	}
	for i := 1; i < len(snap.Levels); i++ {
		if snap.Levels[i].MaxLength <= snap.Levels[i-1].MaxLength {
			t.Errorf("levels not sorted by max length: %v", snap.Levels)
		}
	}
	for i, lv := range snap.Levels {
		if lv.Instances == 0 || lv.Capacity == 0 {
			t.Errorf("level %d: instances %d capacity %d, want both > 0", i, lv.Instances, lv.Capacity)
		}
	}
	if !snap.Serviceable() {
		t.Error("fresh cluster should be serviceable")
	}
}

func TestLoadEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/load")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap wire.LoadSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq == 0 || len(snap.Levels) == 0 {
		t.Errorf("load JSON looks empty: %+v", snap)
	}
}

func TestWireLoadProbe(t *testing.T) {
	srv, _ := testServer(t)
	srv.shard = "wired"
	addr := startWire(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendFrame(nil, wire.AppendLoadRequest(nil, 42))); err != nil {
		t.Fatal(err)
	}
	payload, _, err := wire.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wire.DecodeLoadSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != 42 {
		t.Errorf("id = %d, want 42", snap.ID)
	}
	if snap.Shard != "wired" {
		t.Errorf("shard = %q", snap.Shard)
	}
	if len(snap.Levels) == 0 || !snap.Serviceable() {
		t.Errorf("snapshot not serviceable or empty: %+v", snap)
	}
}

// TestLoadSnapshotCountsServingCapacity closes the crashed-capacity
// defect: a crashed instance awaiting rejoin is counted dead, but its M_i
// leaves its level's capacity (and so utilization's denominator) at once,
// so a level's instances and capacity agree.
func TestLoadSnapshotCountsServingCapacity(t *testing.T) {
	srv, cl := testServer(t)
	before := srv.LoadSnapshot()
	if _, err := cl.FailInstance(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	snap := srv.LoadSnapshot()
	if snap.Healthy != before.Healthy-1 || snap.Dead != 1 {
		t.Errorf("healthy %d dead %d, want %d and 1", snap.Healthy, snap.Dead, before.Healthy-1)
	}
	if lv := snap.Levels[0]; lv.Instances != 0 || lv.Capacity != 0 {
		t.Errorf("level 0 with its only instance crashed: instances %d capacity %d, want 0 and 0",
			lv.Instances, lv.Capacity)
	}
	for i := 1; i < len(snap.Levels); i++ {
		if snap.Levels[i] != before.Levels[i] {
			t.Errorf("level %d = %+v, want it unchanged at %+v", i, snap.Levels[i], before.Levels[i])
		}
	}
}

// TestHealthzBodyPinned pins the exact /healthz bytes of a 3-instance
// cluster with one instance slowed and one crashed for an hour: the
// per-state counts, the shard name, and each instance's state, with
// slow_factor shown only where it is not 1 (healthy) or 0 (dead).
func TestHealthzBodyPinned(t *testing.T) {
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 256, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: []int{1, 1, 1},
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	srv, err := New(tokenizer.New(), cl, WithShardName("pin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SlowInstance(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FailInstance(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	const want = `{"status":"ok","healthy":1,"degraded":1,"dead":1,"shard":"pin","instances":[` +
		`{"id":0,"runtime":0,"state":"healthy"},` +
		`{"id":1,"runtime":1,"state":"degraded","slow_factor":2.5},` +
		`{"id":2,"runtime":2,"state":"dead"}]}` + "\n"
	if w.Code != http.StatusOK || w.Body.String() != want {
		t.Errorf("/healthz = %d\n got %q\nwant %q", w.Code, w.Body.String(), want)
	}
}

func TestHealthzInstances(t *testing.T) {
	srv, cl := testServer(t)
	if _, err := cl.SlowInstance(0, 3); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Instances) != cl.Instances() {
		t.Fatalf("instances = %d, want %d", len(hr.Instances), cl.Instances())
	}
	// The per-instance array must agree with the aggregate counts — the
	// same split arlo_instance_health exports.
	counts := map[string]int{}
	degradedFactor := 0.0
	for _, in := range hr.Instances {
		counts[in.State]++
		if in.State == "degraded" {
			degradedFactor = in.SlowFactor
		}
	}
	if counts["healthy"] != hr.Healthy || counts["degraded"] != hr.Degraded || counts["dead"] != hr.Dead {
		t.Errorf("per-instance states %v disagree with summary %+v", counts, hr.HealthSummary)
	}
	if hr.Degraded != 1 || degradedFactor != 3 {
		t.Errorf("degraded = %d factor = %v, want 1 and 3", hr.Degraded, degradedFactor)
	}
}
