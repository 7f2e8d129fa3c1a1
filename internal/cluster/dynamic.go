package cluster

import "fmt"

// AddInstance provisions one new worker serving the given runtime. It is
// the real-time counterpart of the simulator's scale-out/replacement
// instance bring-up and returns the new instance's ID.
func (c *Cluster) AddInstance(rtIdx int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClusterClosed
	}
	if rtIdx < 0 || rtIdx >= len(c.cfg.Profile.Runtimes) {
		return 0, fmt.Errorf("cluster: runtime %d outside [0, %d)", rtIdx, len(c.cfg.Profile.Runtimes))
	}
	id := c.nextID
	if err := c.addWorker(rtIdx); err != nil {
		return 0, err
	}
	return id, nil
}

// RemoveInstance drains and stops the least busy worker of the given
// runtime (any runtime when rtIdx is -1): it stops receiving dispatches
// immediately and finishes its queued work in the background. It returns
// the removed instance's ID, or an error when the runtime has no workers.
func (c *Cluster) RemoveInstance(rtIdx int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClusterClosed
	}
	var victim *worker
	victimOut := 0
	for _, w := range c.workers {
		if rtIdx >= 0 && w.inst.Runtime != rtIdx {
			continue
		}
		o := w.inst.Outstanding()
		if victim == nil || o < victimOut ||
			(o == victimOut && w.inst.ID < victim.inst.ID) {
			victim, victimOut = w, o
		}
	}
	if victim == nil {
		return 0, fmt.Errorf("cluster: no instance to remove for runtime %d", rtIdx)
	}
	c.ml.Remove(victim.inst.ID)
	delete(c.workers, victim.inst.ID)
	close(victim.ch) // the worker goroutine drains its queue and exits
	return victim.inst.ID, nil
}

// Replace swaps one instance from runtime from to runtime to: the old
// worker drains in the background and the new one comes up at once (the
// simulator models the paper's ~1 s swap; the live loop does not wait it
// out). It returns the new instance's ID.
func (c *Cluster) Replace(from, to int) (int, error) {
	if _, err := c.RemoveInstance(from); err != nil {
		return 0, err
	}
	return c.AddInstance(to)
}

// Allocation returns the current per-runtime worker counts.
func (c *Cluster) Allocation() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, len(c.cfg.Profile.Runtimes))
	for _, w := range c.workers {
		out[w.inst.Runtime]++
	}
	return out
}

// Outstanding returns the total dispatched-but-unfinished request count.
// The sum reads atomic counters; no cluster lock is taken.
func (c *Cluster) Outstanding() int {
	return c.ml.TotalOutstanding()
}
