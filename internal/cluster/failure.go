// Fault injection for the live cluster, mirroring the simulator's failure
// model (sim.Failure) on the wall clock: a crash kills the most loaded
// instance of a runtime, its queued and in-flight work re-enters through
// the normal dispatch path (the failover demotion rule), and the instance
// rejoins after its downtime through the same topology path as a
// scale-out. The chaos harness (internal/chaos) drives these entry points
// under load to prove the conservation invariants.

package cluster

import (
	"fmt"
	"math"
	"time"

	"arlo/internal/queue"
)

// FailInstance crashes one instance of runtime rtIdx (any runtime when
// rtIdx is -1), selecting the victim by the shared failure rule (queue.PickVictim): the most
// loaded instance, ties toward the smaller ID — the same choice the
// simulator's failure model makes. The victim detaches from the queue
// atomically with respect to in-flight submissions (they hold the
// topology lock shared), so no new work lands on it after FailInstance
// returns. Its in-flight emulated kernel is interrupted (the computation
// is lost, as on a real GPU) and its queued jobs drain asynchronously;
// both re-enter through the active dispatch policy against the requeue
// budget.
//
// A positive downtime schedules the instance's rejoin after
// downtime × TimeScale (wall clock) through the AddInstance path, under a
// fresh ID; downtime <= 0 leaves it down forever. The returned ID is the
// crashed instance's.
func (c *Cluster) FailInstance(rtIdx int, downtime time.Duration) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClusterClosed
	}
	if rtIdx < -1 || rtIdx >= len(c.cfg.Profile.Runtimes) {
		return 0, fmt.Errorf("cluster: runtime %d outside [-1, %d)", rtIdx, len(c.cfg.Profile.Runtimes))
	}
	victim := queue.PickVictim(c.ml.Instances(), rtIdx)
	if victim == nil {
		return 0, fmt.Errorf("cluster: no instance to fail for runtime %d", rtIdx)
	}
	w := c.workers[victim.ID]
	c.ml.Remove(victim.ID)
	delete(c.workers, victim.ID)
	c.failed[victim.ID] = &failedInstance{runtime: victim.Runtime, capacity: victim.MaxCapacity}
	// Order matters: dead first (the drain loop and the spin loop read it),
	// then the kill broadcast (interrupts the sleeping kernel), then the
	// channel close (lets the drain loop terminate). All under the
	// exclusive lock, so no submission can be mid-send on w.ch.
	w.dead.Store(true)
	close(w.kill)
	close(w.ch)
	if downtime > 0 {
		wall := time.Duration(float64(downtime) * c.scale)
		id, rt := victim.ID, victim.Runtime
		time.AfterFunc(wall, func() { c.recoverInstance(id, rt) })
	}
	return victim.ID, nil
}

// recoverInstance brings a crashed instance's replacement up once its
// downtime elapses. The rejoin goes through the normal addWorker topology
// path under a fresh ID — exactly how the simulator re-adds a recovered
// instance, and how a real orchestrator would schedule a replacement pod.
func (c *Cluster) recoverInstance(failedID, rtIdx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if _, ok := c.failed[failedID]; !ok {
		// Already recovered (or cleared) by another path.
		return
	}
	delete(c.failed, failedID)
	// addWorker can only fail on a duplicate queue ID, impossible for a
	// fresh nextID; ignore defensively rather than crash the timer
	// goroutine.
	_ = c.addWorker(rtIdx)
}

// SlowInstance puts one instance of runtime rtIdx (any runtime when rtIdx
// is -1) into degraded mode: its emulated execution latency is multiplied
// by factor until restored. The victim is chosen by the same most-loaded
// rule as FailInstance. A factor of 1 restores full speed; factors below 1
// (faster) are allowed for testing. The instance keeps serving — slowness
// shows up as queue growth that Algorithm 1's congestion thresholds route
// around, not as displaced work. Returns the degraded instance's ID.
func (c *Cluster) SlowInstance(rtIdx int, factor float64) (int, error) {
	if factor <= 0 {
		return 0, fmt.Errorf("cluster: slow factor %g must be positive", factor)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClusterClosed
	}
	if rtIdx < -1 || rtIdx >= len(c.cfg.Profile.Runtimes) {
		return 0, fmt.Errorf("cluster: runtime %d outside [-1, %d)", rtIdx, len(c.cfg.Profile.Runtimes))
	}
	victim := queue.PickVictim(c.ml.Instances(), rtIdx)
	if victim == nil {
		return 0, fmt.Errorf("cluster: no instance to slow for runtime %d", rtIdx)
	}
	c.workers[victim.ID].slow.Store(math.Float64bits(factor))
	return victim.ID, nil
}

// RestoreInstance returns a degraded instance to full speed. It is a
// no-op with an error for unknown (including crashed) IDs.
func (c *Cluster) RestoreInstance(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return fmt.Errorf("cluster: no instance %d to restore", id)
	}
	w.slow.Store(math.Float64bits(1))
	return nil
}
