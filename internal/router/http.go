// The router's own HTTP surface: its mux, the reply type a client of a
// routed /v1/infer decodes, and the /healthz aggregation.
// The two inference endpoints themselves are serve.Frontend's handlers —
// the code a shard runs — so a shard's typed rejection (rate_limited with
// Retry-After, unserviceable, congested, too_long) reaches the HTTP
// client exactly as the router-less path would write it, never rewrapped
// into a generic 502; the router's OK replies add the route fields below.

package router

import (
	"encoding/json"
	"net/http"
	"time"

	"arlo/internal/serve"
)

// InferResponse is the router's reply to POST /v1/infer: the shard's
// InferResponse plus the route stage.
type InferResponse struct {
	serve.InferResponse
	// RouteMS is the time the router spent choosing a shard (including
	// failed reroute hops) before the successful forward began.
	RouteMS float64 `json:"route_ms"`
	// Shard is the shard that served the request.
	Shard string `json:"shard"`
	// Hops is how many reroute hops the request took (omitted when it
	// was served by the first shard picked).
	Hops int `json:"hops,omitempty"`
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// ShardHealth is one shard's state in the router's /healthz aggregation.
type ShardHealth struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// State is "up" when the shard is reachable and its last snapshot
	// reports serving instances, "down" otherwise.
	State string `json:"state"`
	// Healthy, Degraded and Dead are the shard's per-state instance
	// counts from its last snapshot (zero before the first refresh).
	Healthy  int `json:"healthy"`
	Degraded int `json:"degraded"`
	Dead     int `json:"dead"`
	// SnapshotAgeMS is how stale the shard's snapshot is (-1 before the
	// first refresh).
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
	// Seq is the snapshot's shard-side sequence number.
	Seq uint64 `json:"seq"`
}

// HealthResponse is the router's /healthz body: tier status plus every
// shard's state.
type HealthResponse struct {
	// Status is "ok" while at least one shard is up, "unavailable"
	// otherwise.
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "unavailable", Shards: make([]ShardHealth, 0, len(r.shards))}
	status := http.StatusServiceUnavailable
	for _, sh := range r.shards {
		shh := ShardHealth{Name: sh.name, Addr: sh.addr, State: "down", SnapshotAgeMS: -1}
		e := sh.snapshot()
		if e != nil {
			shh.Healthy = int(e.snap.Healthy)
			shh.Degraded = int(e.snap.Degraded)
			shh.Dead = int(e.snap.Dead)
			shh.SnapshotAgeMS = float64(time.Since(e.at)) / float64(time.Millisecond)
			shh.Seq = e.snap.Seq
		}
		if !sh.down.Load() && (e == nil || e.snap.Serviceable()) {
			shh.State = "up"
			resp.Status = "ok"
			status = http.StatusOK
		}
		resp.Shards = append(resp.Shards, shh)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}
