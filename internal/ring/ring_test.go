package ring

import (
	"sync"
	"testing"
	"time"
)

// TestSingleShardFIFO checks the core ring contract against a naive
// reference: with one shard and one producer, Drain yields exactly the
// enqueued sequence in order.
func TestSingleShardFIFO(t *testing.T) {
	r := New[int](1, 8)
	var want []int
	for round := 0; round < 50; round++ {
		// Fill to capacity, drain in ragged group sizes.
		for i := 0; ; i++ {
			if _, ok := r.Enqueue(round*100 + i); !ok {
				break
			}
			want = append(want, round*100+i)
		}
		for r.Len(0) > 0 {
			got := r.Drain(0, nil, 3)
			for _, v := range got {
				if v != want[0] {
					t.Fatalf("round %d: drained %d, want %d", round, v, want[0])
				}
				want = want[1:]
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d values never drained", len(want))
	}
}

func TestCapacityRounding(t *testing.T) {
	slots := func(r *Ring[int]) int { return len(r.shards[0].slots) }
	if got := slots(New[int](1, 100)); got != 128 {
		t.Fatalf("capacity 100 rounded to %d, want 128", got)
	}
	if got := slots(New[int](1, 64)); got != 64 {
		t.Fatalf("capacity 64 rounded to %d, want 64", got)
	}
	if got := New[int](0, 0); got.Shards() < 1 || slots(got) != DefaultShardCapacity {
		t.Fatalf("defaults: shards %d capacity %d", got.Shards(), slots(got))
	}
}

// TestBackpressure checks that a full ring rejects instead of blocking or
// overwriting.
func TestBackpressure(t *testing.T) {
	r := New[int](2, 4)
	accepted := 0
	for i := 0; i < 100; i++ {
		if _, ok := r.Enqueue(i); ok {
			accepted++
		}
	}
	if accepted != 2*4 {
		t.Fatalf("accepted %d into a 2x4 ring, want 8", accepted)
	}
	total := 0
	for s := 0; s < r.Shards(); s++ {
		total += len(r.Drain(s, nil, 100))
	}
	if total != accepted {
		t.Fatalf("drained %d, accepted %d", total, accepted)
	}
}

// TestConcurrentNoLossNoDup hammers the ring with many producers and one
// consumer per shard under -race, then checks the multiset of drained
// values against what producers report enqueued: nothing lost, nothing
// duplicated, and each producer's values appear in its enqueue order
// within every shard (per-shard FIFO implies per-producer order there).
func TestConcurrentNoLossNoDup(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
	)
	r := New[uint64](4, 64)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	perShard := make([][]uint64, r.Shards())
	for s := 0; s < r.Shards(); s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var got []uint64
			buf := make([]uint64, 0, 32)
			for {
				buf = r.Drain(shard, buf[:0], 32)
				got = append(got, buf...)
				if len(buf) == 0 && !r.Wait(shard, stop) {
					// Stopped: one final drain for values published
					// after the last pass.
					got = append(got, r.Drain(shard, buf[:0], 1<<20)...)
					mu.Lock()
					perShard[shard] = got
					mu.Unlock()
					return
				}
			}
		}(s)
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(p)<<32 | uint64(i)
				for {
					if _, ok := r.Enqueue(v); ok {
						break
					}
					time.Sleep(10 * time.Microsecond) // full: back off
				}
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	seen := make(map[uint64]bool, producers*perProd)
	lastPerProd := make(map[int]map[uint64]int64) // shard -> producer -> last index
	total := 0
	for shard, got := range perShard {
		last := make(map[uint64]int64)
		lastPerProd[shard] = last
		for _, v := range got {
			if seen[v] {
				t.Fatalf("value %x drained twice", v)
			}
			seen[v] = true
			total++
			p, i := v>>32, int64(v&0xffffffff)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("shard %d: producer %d out of order: %d after %d", shard, p, i, prev)
			}
			last[p] = i
		}
	}
	if total != producers*perProd {
		t.Fatalf("drained %d values, enqueued %d", total, producers*perProd)
	}
}

// TestWaitStop checks that a parked consumer wakes on stop.
func TestWaitStop(t *testing.T) {
	r := New[int](1, 4)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- r.Wait(0, stop) }()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Wait returned true on stop")
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not return on stop")
	}
}

func BenchmarkEnqueueDrain(b *testing.B) {
	r := New[int](1, 1024)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Enqueue(i); !ok {
			b.Fatal("full")
		}
		if i%64 == 63 {
			buf = r.Drain(0, buf[:0], 64)
			if len(buf) != 64 {
				b.Fatalf("drained %d", len(buf))
			}
		}
	}
}
