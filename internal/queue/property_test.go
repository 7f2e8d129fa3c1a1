package queue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refLevel is the naive reference model of one level: a flat slice,
// re-scanned on every query. The real Level must agree with it after
// every operation.
type refLevel struct {
	insts map[int]*Instance
}

func (r *refLevel) front() *Instance {
	var best *Instance
	for _, in := range r.insts {
		if best == nil || in.Outstanding() < best.Outstanding() ||
			(in.Outstanding() == best.Outstanding() && in.ID < best.ID) {
			best = in
		}
	}
	return best
}

func (r *refLevel) depth() int {
	d := 0
	for _, in := range r.insts {
		d += in.Outstanding()
	}
	return d
}

// refCandidates is the reference spelling of CandidateLevels: every level
// whose max_length covers the request, smallest first.
func refCandidates(maxLens []int, length int) []int {
	var out []int
	for k, ml := range maxLens {
		if ml >= length {
			out = append(out, k)
		}
	}
	return out
}

// TestMultiLevelMatchesReferenceModel drives the lock-striped multi-level
// queue and a naive reference model with the same seeded operation
// stream — add, remove, dispatch, complete (including spurious completes
// that must clamp at zero) — and checks every queryable property after
// each step: size, per-level depth and front, candidate levels, total
// outstanding, and id lookup.
func TestMultiLevelMatchesReferenceModel(t *testing.T) {
	maxLens := []int{64, 128, 256, 512}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ml, err := NewMultiLevel(maxLens)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]refLevel, len(maxLens))
		for k := range ref {
			ref[k].insts = make(map[int]*Instance)
		}
		nextID := 0
		var live []int // ids currently attached
		byID := map[int]*Instance{}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 3: // add
				rt := rng.Intn(len(maxLens))
				in := NewInstance(nextID, rt, rng.Intn(4), 8)
				nextID++
				if err := ml.Add(in); err != nil {
					t.Fatalf("trial %d op %d: add: %v", trial, op, err)
				}
				ref[rt].insts[in.ID] = in
				byID[in.ID] = in
				live = append(live, in.ID)
			case r < 4 && len(live) > 0: // remove
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				removed := ml.Remove(id)
				if removed == nil || removed.ID != id {
					t.Fatalf("trial %d op %d: remove(%d) = %v", trial, op, id, removed)
				}
				delete(ref[removed.Runtime].insts, id)
			case r < 7 && len(live) > 0: // dispatch to some instance
				id := live[rng.Intn(len(live))]
				in := byID[id]
				ml.OnDispatch(in)
			case len(live) > 0: // complete (sometimes spurious: must clamp)
				id := live[rng.Intn(len(live))]
				in := byID[id]
				before := in.Outstanding()
				ml.OnComplete(in)
				if before == 0 && in.Outstanding() != 0 {
					t.Fatalf("trial %d op %d: spurious complete drove outstanding to %d", trial, op, in.Outstanding())
				}
			}

			// Full property sweep against the reference.
			if got, want := ml.Size(), len(live); got != want {
				t.Fatalf("trial %d op %d: size %d, ref %d", trial, op, got, want)
			}
			total := 0
			for k := range maxLens {
				lvl := ml.Level(k)
				if got, want := lvl.Len(), len(ref[k].insts); got != want {
					t.Fatalf("trial %d op %d: level %d len %d, ref %d", trial, op, k, got, want)
				}
				if got, want := lvl.Depth(), ref[k].depth(); got != want {
					t.Fatalf("trial %d op %d: level %d depth %d, ref %d", trial, op, k, got, want)
				}
				gotF, wantF := lvl.Front(), ref[k].front()
				if gotF != wantF {
					t.Fatalf("trial %d op %d: level %d front %v, ref %v", trial, op, k, gotF, wantF)
				}
				total += ref[k].depth()
			}
			if got := ml.TotalOutstanding(); got != total {
				t.Fatalf("trial %d op %d: total outstanding %d, ref %d", trial, op, got, total)
			}
			length := 1 + rng.Intn(600)
			if got, want := ml.CandidateLevels(length), refCandidates(maxLens, length); !equalInts(got, want) {
				t.Fatalf("trial %d op %d: candidates(%d) = %v, ref %v", trial, op, length, got, want)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiLevelConcurrentConservation hammers a fixed topology with
// paired dispatch/complete from many goroutines plus concurrent Front and
// Depth readers. Run under -race this audits the striped locking; the
// final state must conserve: every dispatch was matched by a complete, so
// all counters return to zero and the heaps still answer queries.
func TestMultiLevelConcurrentConservation(t *testing.T) {
	maxLens := []int{128, 512}
	ml, err := NewMultiLevel(maxLens)
	if err != nil {
		t.Fatal(err)
	}
	var insts []*Instance
	for id := 0; id < 6; id++ {
		in := NewInstance(id, id%2, 0, 16)
		insts = append(insts, in)
		if err := ml.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	const (
		workers  = 8
		perGor   = 500
		nReaders = 2
	)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < nReaders; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := range maxLens {
					ml.Level(k).Front()
					ml.Level(k).Depth()
				}
				ml.TotalOutstanding()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perGor; i++ {
				in := insts[rng.Intn(len(insts))]
				ml.OnDispatch(in)
				ml.OnComplete(in)
			}
		}(int64(w))
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := ml.TotalOutstanding(); got != 0 {
		t.Errorf("total outstanding after paired ops = %d, want 0", got)
	}
	for _, in := range insts {
		if got := in.Outstanding(); got != 0 {
			t.Errorf("instance %d outstanding = %d, want 0", in.ID, got)
		}
	}
	// The heaps must still be coherent: fronts answer, and a sweep of
	// removals drains cleanly.
	for k := range maxLens {
		if f := ml.Level(k).Front(); f == nil {
			t.Errorf("level %d front nil on populated level", k)
		}
	}
	ids := make([]int, 0, len(insts))
	for _, in := range insts {
		ids = append(ids, in.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if removed := ml.Remove(id); removed == nil {
			t.Errorf("remove(%d) after hammering = nil", id)
		}
	}
	if ml.Size() != 0 {
		t.Errorf("size after draining = %d", ml.Size())
	}
}
