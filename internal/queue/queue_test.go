package queue

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestLevelFrontIsLeastLoaded(t *testing.T) {
	var l Level
	if l.Front() != nil {
		t.Error("empty level front should be nil")
	}
	a := NewInstance(1, 0, 5, 10)
	b := NewInstance(2, 0, 2, 10)
	c := NewInstance(3, 0, 8, 10)
	l.Add(a)
	l.Add(b)
	l.Add(c)
	if l.Front() != b {
		t.Errorf("front = %d, want instance 2", l.Front().ID)
	}
	b.SetOutstanding(9)
	l.Update(b)
	if l.Front() != a {
		t.Errorf("after update front = %d, want instance 1", l.Front().ID)
	}
	if !l.Remove(a) {
		t.Error("remove of member should succeed")
	}
	if l.Remove(a) {
		t.Error("double remove should fail")
	}
	if l.Front() != c {
		t.Errorf("after removal front = %d, want instance 3", l.Front().ID)
	}
	if l.Len() != 2 {
		t.Errorf("level len = %d, want 2", l.Len())
	}
}

func TestLevelTieBreaksByID(t *testing.T) {
	var l Level
	l.Add(NewInstance(9, 0, 3, 0))
	l.Add(NewInstance(2, 0, 3, 0))
	if l.Front().ID != 2 {
		t.Errorf("tie should break toward smaller ID, got %d", l.Front().ID)
	}
}

func TestLevelHeapInvariantUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l Level
		live := map[int]*Instance{}
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // add
				in := NewInstance(next, 0, rng.Intn(50), 50)
				next++
				l.Add(in)
				live[in.ID] = in
			case 2: // mutate a random instance
				for _, in := range live {
					in.SetOutstanding(rng.Intn(50))
					l.Update(in)
					break
				}
			case 3: // remove
				for id, in := range live {
					l.Remove(in)
					delete(live, id)
					break
				}
			}
			// Invariant: front has the minimal outstanding count.
			if front := l.Front(); front != nil {
				for _, in := range live {
					if in.Outstanding() < front.Outstanding() {
						return false
					}
				}
			} else if len(live) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMultiLevelQuickInvariants drives the striped implementation through
// random dispatch/complete/add/remove traffic and checks the scheduler's
// two core invariants after every operation: each level's front is its
// least-loaded member (by outstanding, ties by ID), and TotalOutstanding
// equals the sum of the per-instance counters.
func TestMultiLevelQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mustMLf(t, []int{64, 128, 256})
		live := []*Instance{}
		next := 0
		dispatched := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(6) {
			case 0, 1: // add
				in := NewInstance(next, rng.Intn(3), 0, 1+rng.Intn(40))
				next++
				if err := m.Add(in); err != nil {
					return false
				}
				live = append(live, in)
			case 2, 3: // dispatch to a level front
				if len(live) == 0 {
					continue
				}
				lvl := rng.Intn(3)
				if head := m.Level(lvl).Front(); head != nil {
					m.OnDispatch(head)
					dispatched++
				}
			case 4: // complete on a random live instance
				if len(live) == 0 {
					continue
				}
				in := live[rng.Intn(len(live))]
				if in.Outstanding() > 0 {
					m.OnComplete(in)
					dispatched--
				}
			case 5: // remove a random instance
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				in := live[i]
				if m.Remove(in.ID) != in {
					return false
				}
				dispatched -= in.Outstanding()
				live = append(live[:i], live[i+1:]...)
			}
			if m.TotalOutstanding() != dispatched {
				return false
			}
			for lvl := 0; lvl < len(m.levels); lvl++ {
				front := m.Level(lvl).Front()
				for _, in := range m.Level(lvl).Instances() {
					if front == nil {
						return false
					}
					if in.Outstanding() < front.Outstanding() ||
						(in.Outstanding() == front.Outstanding() && in.ID < front.ID) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentDispatchCompleteStress hammers the striped queue from
// many goroutines — dispatching against level fronts and completing —
// and verifies the post-quiescence invariants: outstanding counts sum to
// dispatches minus completions, and every level front is its least-loaded
// member. Run under -race this also proves the striping is data-race
// free.
func TestConcurrentDispatchCompleteStress(t *testing.T) {
	const (
		levels   = 4
		perLevel = 8
		iters    = 3000
		grs      = 8
	)
	maxLens := make([]int, levels)
	for i := range maxLens {
		maxLens[i] = 64 * (i + 1)
	}
	m := mustMLf(t, maxLens)
	for id := 0; id < levels*perLevel; id++ {
		if err := m.Add(NewInstance(id, id%levels, 0, 30)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < grs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			backlog := make([]*Instance, 0, 64)
			for i := 0; i < iters; i++ {
				lvl := rng.Intn(levels)
				if head := m.Level(lvl).Front(); head != nil {
					m.OnDispatch(head)
					backlog = append(backlog, head)
				}
				// Complete about as fast as we dispatch, slightly lagging
				// so there is always in-flight load.
				if len(backlog) > 4 {
					j := rng.Intn(len(backlog))
					m.OnComplete(backlog[j])
					backlog[j] = backlog[len(backlog)-1]
					backlog = backlog[:len(backlog)-1]
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
			for _, in := range backlog {
				m.OnComplete(in)
			}
		}(g)
	}
	wg.Wait()
	if got := m.TotalOutstanding(); got != 0 {
		t.Errorf("after full drain total outstanding = %d, want 0", got)
	}
	for lvl := 0; lvl < len(m.levels); lvl++ {
		front := m.Level(lvl).Front()
		if front == nil {
			t.Fatalf("level %d unexpectedly empty", lvl)
		}
		for _, in := range m.Level(lvl).Instances() {
			if in.Outstanding() < front.Outstanding() {
				t.Errorf("level %d front %d (out %d) is not least-loaded: instance %d has %d",
					lvl, front.ID, front.Outstanding(), in.ID, in.Outstanding())
			}
		}
	}
}

// TestConcurrentTopologyChurn mixes dispatch/complete traffic with
// concurrent instance add/remove — the scale-out/replacement path — to
// prove the topology lock and the level stripes compose without deadlock
// or lost accounting.
func TestConcurrentTopologyChurn(t *testing.T) {
	m := mustMLf(t, []int{64, 128})
	for id := 0; id < 8; id++ {
		if err := m.Add(NewInstance(id, id%2, 0, 20)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if head := m.Level(rng.Intn(2)).Front(); head != nil {
					m.OnDispatch(head)
					m.OnComplete(head)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		id := 1000 + i
		if err := m.Add(NewInstance(id, i%2, 0, 20)); err != nil {
			t.Fatal(err)
		}
		m.Remove(id)
	}
	close(stop)
	wg.Wait()
	if m.Size() != 8 {
		t.Errorf("size = %d, want the original 8", m.Size())
	}
}

func TestNewMultiLevelValidation(t *testing.T) {
	if _, err := NewMultiLevel(nil); err == nil {
		t.Error("empty levels should fail")
	}
	if _, err := NewMultiLevel([]int{64, 64}); err == nil {
		t.Error("non-increasing max_lengths should fail")
	}
	if _, err := NewMultiLevel([]int{128, 64}); err == nil {
		t.Error("decreasing max_lengths should fail")
	}
}

func mustML(t *testing.T, lens []int) *MultiLevel {
	t.Helper()
	m, err := NewMultiLevel(lens)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustMLf is mustML for helpers called from testing/quick functions where
// t.Fatal must not be called off the test goroutine.
func mustMLf(t *testing.T, lens []int) *MultiLevel {
	m, err := NewMultiLevel(lens)
	if err != nil {
		t.Error(err)
		return nil
	}
	return m
}

func TestMultiLevelAddRemove(t *testing.T) {
	m := mustML(t, []int{64, 128, 256, 512})
	if len(m.levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(m.levels))
	}
	in := &Instance{ID: 7, Runtime: 2, MaxCapacity: 40}
	if err := m.Add(in); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(&Instance{ID: 7, Runtime: 1}); err == nil {
		t.Error("duplicate ID should fail")
	}
	if err := m.Add(&Instance{ID: 8, Runtime: 9}); err == nil {
		t.Error("out-of-range runtime should fail")
	}
	if err := m.Add(&Instance{ID: 9, Runtime: -1}); err == nil {
		t.Error("negative runtime should fail")
	}
	if m.Get(7) != in || m.Size() != 1 {
		t.Error("instance lookup failed")
	}
	if m.Level(2).Front() != in {
		t.Error("instance should head its level")
	}
	if got := m.Remove(7); got != in {
		t.Error("remove should return the instance")
	}
	if m.Remove(7) != nil {
		t.Error("double remove should return nil")
	}
	if m.Size() != 0 || m.Level(2).Front() != nil {
		t.Error("level should be empty after removal")
	}
}

func TestCandidateLevels(t *testing.T) {
	m := mustML(t, []int{64, 128, 256, 512})
	cases := []struct {
		length int
		want   []int
	}{
		{1, []int{0, 1, 2, 3}},
		{64, []int{0, 1, 2, 3}},
		{65, []int{1, 2, 3}},
		{200, []int{2, 3}},
		{512, []int{3}},
		{513, []int{}},
	}
	for _, tc := range cases {
		got := m.CandidateLevels(tc.length)
		if len(got) != len(tc.want) {
			t.Errorf("CandidateLevels(%d) = %v, want %v", tc.length, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("CandidateLevels(%d) = %v, want %v", tc.length, got, tc.want)
				break
			}
		}
	}
}

func TestDispatchCompleteCycle(t *testing.T) {
	m := mustML(t, []int{64, 128})
	a := &Instance{ID: 1, Runtime: 0, MaxCapacity: 10}
	b := &Instance{ID: 2, Runtime: 0, MaxCapacity: 10}
	for _, in := range []*Instance{a, b} {
		if err := m.Add(in); err != nil {
			t.Fatal(err)
		}
	}
	m.OnDispatch(a)
	m.OnDispatch(a)
	if m.Level(0).Front() != b {
		t.Error("least-loaded should rotate to b after dispatching to a")
	}
	if m.TotalOutstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", m.TotalOutstanding())
	}
	m.OnComplete(a)
	m.OnComplete(a)
	m.OnComplete(a) // extra completion is clamped at zero
	if a.Outstanding() != 0 {
		t.Errorf("outstanding clamped at 0, got %d", a.Outstanding())
	}
	if m.TotalOutstanding() != 0 {
		t.Errorf("total outstanding = %d, want 0", m.TotalOutstanding())
	}
}

func TestCongestion(t *testing.T) {
	in := NewInstance(0, 0, 54, 60)
	if got := in.Congestion(); got != 0.9 {
		t.Errorf("congestion = %v, want 0.9", got)
	}
	broken := NewInstance(0, 0, 3, 0)
	if got := broken.Congestion(); got != 1 {
		t.Errorf("zero-capacity congestion = %v, want 1 (saturated)", got)
	}
}

func TestInstancesEnumeration(t *testing.T) {
	m := mustML(t, []int{64, 128})
	for i := 0; i < 5; i++ {
		if err := m.Add(&Instance{ID: i, Runtime: i % 2, MaxCapacity: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Instances()); got != 5 {
		t.Errorf("Instances() returned %d, want 5", got)
	}
	if got := len(m.Level(0).Instances()); got != 3 {
		t.Errorf("level 0 has %d instances, want 3", got)
	}
	buf := make([]*Instance, 0, 8)
	if got := len(m.Level(0).AppendInstances(buf)); got != 3 {
		t.Errorf("AppendInstances returned %d, want 3", got)
	}
}
