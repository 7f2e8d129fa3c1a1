package sim

import (
	"fmt"
	"sort"
	"time"

	"arlo/internal/queue"
)

// Failure injects an instance outage: at time At, one instance of the
// given runtime crashes (its queued requests are re-dispatched, the
// executing request is lost and re-dispatched too), and the GPU rejoins
// with the same runtime after Downtime. Failures model the paper's
// "idiosyncratic factors such as failures and bugs" (section 1) that
// unbalance load faster than the Runtime Scheduler reacts — the case the
// Request Scheduler's dynamics-awareness is built for.
type Failure struct {
	// At is when the instance crashes.
	At time.Duration
	// Runtime selects which runtime loses an instance (the most loaded
	// instance of that runtime is chosen); -1 picks the most loaded
	// instance cluster-wide.
	Runtime int
	// Downtime is how long the GPU stays offline (0 keeps it down for
	// the rest of the run).
	Downtime time.Duration
}

// validateFailures checks failure specs against the profile.
func validateFailures(failures []Failure, numRuntimes int) error {
	for i, f := range failures {
		if f.At < 0 {
			return fmt.Errorf("sim: failure %d at negative time %v", i, f.At)
		}
		if f.Runtime < -1 || f.Runtime >= numRuntimes {
			return fmt.Errorf("sim: failure %d targets runtime %d outside [-1, %d)", i, f.Runtime, numRuntimes)
		}
		if f.Downtime < 0 {
			return fmt.Errorf("sim: failure %d has negative downtime", i)
		}
	}
	return nil
}

// scheduleFailures pushes failure events onto the timeline, in time order.
func (s *Simulator) scheduleFailures() {
	failures := append([]Failure{}, s.cfg.Failures...)
	sort.Slice(failures, func(i, j int) bool { return failures[i].At < failures[j].At })
	for i := range failures {
		f := failures[i]
		s.tl.pushFailure(f.At, &f)
	}
}

// onFailure crashes an instance: queued and executing work is
// re-dispatched (the executing request restarts from scratch elsewhere),
// and recovery is scheduled when Downtime is positive. Victim selection
// delegates to the failure rule shared with the live cluster.
func (s *Simulator) onFailure(f *Failure) {
	victim := s.pickVictim(f.Runtime)
	if victim == nil {
		return // nothing to crash (e.g. runtime currently has no instances)
	}
	rtIdx := victim.sched.Runtime
	s.res.Failures++
	s.counts[rtIdx]--
	// Capture the executing batch before retiring: a crash loses the
	// in-flight computation, unlike a graceful replacement.
	executing := victim.executing
	victim.executing = nil
	if o := victim.sched.Outstanding() - len(executing); o > 0 {
		victim.sched.SetOutstanding(o)
	} else {
		victim.sched.SetOutstanding(0)
	}
	s.retire(victim)
	delete(s.insts, victim.sched.ID)
	for _, req := range executing {
		s.dispatchRequest(req)
	}
	s.res.GPUs.Set(s.now, s.res.GPUs.Last()-1)
	if f.Downtime > 0 {
		recovered := &simInstance{
			sched: &queue.Instance{
				ID:          s.nextID,
				Runtime:     rtIdx,
				MaxCapacity: s.cfg.Profile.Runtimes[rtIdx].Capacity,
			},
			countOnReady: true,
		}
		s.nextID++
		s.tl.push(s.now+f.Downtime, evInstanceReady, nil, recovered)
	}
}

// pickVictim applies queue.PickVictim (most loaded, ties toward the
// smaller ID, -1 for cluster-wide) over the active instances and maps the
// choice back to its simInstance, or nil when none matches.
func (s *Simulator) pickVictim(rtIdx int) *simInstance {
	insts := make([]*queue.Instance, 0, len(s.insts))
	for _, si := range s.insts {
		if si.retired {
			continue
		}
		insts = append(insts, si.sched)
	}
	chosen := queue.PickVictim(insts, rtIdx)
	if chosen == nil {
		return nil
	}
	return s.insts[chosen.ID]
}
