// Shard-side load reporting: the compact snapshot a router tier scores
// shards by. The same snapshot is served two ways — GET /v1/load as JSON
// for operators and tests, and wire.KindLoadRequest frames on the binary
// listener so a router refreshes it over the connection it already
// routes through (one small frame each way, no extra dial).

package serve

import (
	"net/http"

	"arlo/internal/cluster"
	"arlo/internal/wire"
)

// WithShardName names this server's shard in load snapshots and /healthz,
// so a router aggregating several shards can label per-shard metrics and
// health by something stabler than a dialed address. Empty (the default)
// means the server is not part of a sharded deployment — snapshots still
// work, with an empty name.
func WithShardName(name string) Option {
	return func(s *Server) error {
		s.shard = name
		return nil
	}
}

// LoadSnapshot builds the shard's current load report: per-runtime queue
// depth by length bucket, instance health counts, lifetime admission
// counters, and utilization in thousandths. Seq increases with every
// call, so two snapshots from the same shard are ordered without clocks.
func (s *Server) LoadSnapshot() wire.LoadSnapshot {
	snap := wire.LoadSnapshot{
		Seq:       s.loadSeq.Add(1),
		Shard:     s.shard,
		Submitted: uint64(s.rec.Submitted()),
		Completed: uint64(s.rec.Completed()),
		Rejected:  uint64(s.rec.Rejected()),
	}
	sum := cluster.Summarize(s.cluster.Health())
	snap.Healthy = uint16(sum.Healthy)
	snap.Degraded = uint16(sum.Degraded)
	snap.Dead = uint16(sum.Dead)
	live, ok := s.rec.LiveSnapshot()
	if !ok {
		return snap
	}
	// Per-level capacity is the sum of the level's instance bounds (Σ M_i);
	// the gauge snapshot carries it per instance, keyed by runtime index.
	levelCap := make(map[int]int, len(live.Levels))
	var outstanding, capacity int
	for _, in := range live.Instances {
		levelCap[in.Runtime] += in.Capacity
		outstanding += in.Outstanding
		capacity += in.Capacity
	}
	if capacity > 0 {
		snap.UtilMilli = uint32(outstanding * 1000 / capacity)
	}
	snap.Levels = make([]wire.LoadLevel, 0, len(live.Levels))
	for _, lv := range live.Levels {
		snap.Levels = append(snap.Levels, wire.LoadLevel{
			MaxLength: uint32(lv.MaxLength),
			Depth:     uint32(lv.Depth),
			Instances: uint16(lv.Instances),
			Capacity:  uint32(levelCap[lv.Level]),
		})
	}
	return snap
}

// handleLoad serves GET /v1/load: the wire load snapshot as JSON.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	snap := s.LoadSnapshot()
	writeJSON(w, &snap)
}
