package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
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
		for got := r.Drain(0, nil, 3); len(got) > 0; got = r.Drain(0, nil, 3) {
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
// polling consumer per shard under -race, then checks the multiset of
// drained values against what producers report enqueued: nothing lost,
// nothing duplicated, and each producer's values appear in its enqueue
// order within every shard (per-shard FIFO implies per-producer order
// there).
func TestConcurrentNoLossNoDup(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
	)
	r := New[uint64](4, 64)

	var wg sync.WaitGroup
	var stop atomic.Bool
	perShard := make([][]uint64, r.Shards())
	for s := 0; s < r.Shards(); s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			buf := make([]uint64, 0, 32)
			for {
				// Read stop before draining, so the pass after it is set
				// sees every value published before it was.
				stopped := stop.Load()
				buf = r.Drain(shard, buf[:0], 32)
				perShard[shard] = append(perShard[shard], buf...)
				if len(buf) == 0 {
					if stopped {
						return
					}
					runtime.Gosched()
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
				enqueueRetry(r, uint64(p)<<32|uint64(i))
			}
		}(p)
	}
	pwg.Wait()
	stop.Store(true)
	wg.Wait()
	checkDrained(t, perShard, producers, perProd)
}

// TestSelfDrainNoStrand runs the protocol Ingress runs, with no consumer
// of its own: each producer enqueues and then drains its shard while it
// can take the flag, trying again whenever Release reports a published
// value. Once every producer has returned, every value must have been
// drained — a value left to a holder that released without looking
// would still be in the ring.
func TestSelfDrainNoStrand(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
	)
	r := New[uint64](2, 64)
	perShard := make([][]uint64, r.Shards()) // written only by the flag holder

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]uint64, 0, 16)
			for i := 0; i < perProd; i++ {
				shard := enqueueRetry(r, uint64(p)<<32|uint64(i))
				for r.TryAcquire(shard) {
					for {
						buf = r.Drain(shard, buf[:0], 16)
						if len(buf) == 0 {
							break
						}
						perShard[shard] = append(perShard[shard], buf...)
					}
					if !r.Release(shard) {
						break
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for s := 0; s < r.Shards(); s++ {
		if left := r.Drain(s, nil, producers*perProd); len(left) != 0 {
			t.Errorf("shard %d: %d values stranded after every producer returned", s, len(left))
		}
	}
	checkDrained(t, perShard, producers, perProd)
}

// TestReleaseSeesLoser pins the interleaving the self-drain protocol
// exists for, step by step: the holder's last drain finds the shard
// empty, a producer then publishes and finds the flag taken, and the
// holder's Release must report the value so that the holder drains it.
func TestReleaseSeesLoser(t *testing.T) {
	r := New[int](1, 4)
	if !r.TryAcquire(0) {
		t.Fatal("fresh shard's flag is taken")
	}
	if got := r.Drain(0, nil, 4); len(got) != 0 {
		t.Fatalf("empty shard drained %v", got)
	}
	r.Enqueue(7)
	if r.TryAcquire(0) {
		t.Fatal("a second goroutine took a held flag")
	}
	if !r.Release(0) {
		t.Fatal("Release did not report the value published while the flag was held")
	}
	if !r.TryAcquire(0) {
		t.Fatal("flag still taken after Release")
	}
	if got := r.Drain(0, nil, 4); len(got) != 1 || got[0] != 7 {
		t.Fatalf("drained %v, want [7]", got)
	}
	if r.Release(0) {
		t.Fatal("Release reported a value on an empty shard")
	}
}

// enqueueRetry enqueues v, backing off while the ring is full, and returns
// the shard it landed in.
func enqueueRetry(r *Ring[uint64], v uint64) int {
	for {
		if shard, ok := r.Enqueue(v); ok {
			return shard
		}
		time.Sleep(10 * time.Microsecond) // full: back off
	}
}

// checkDrained checks the per-shard drain logs against producers values
// each of perProd: nothing lost, nothing duplicated, per-producer order
// kept within every shard.
func checkDrained(t *testing.T, perShard [][]uint64, producers, perProd int) {
	t.Helper()
	seen := make(map[uint64]bool, producers*perProd)
	total := 0
	for shard, got := range perShard {
		last := make(map[uint64]int64) // producer -> last index
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
