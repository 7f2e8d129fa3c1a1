package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"arlo/internal/chaos"
	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/router"
	"arlo/internal/serve"
	"arlo/internal/tokenizer"
)

// The router claim is the one socket-level claim: the routing policies
// only differ across real wire connections to real shards, so its arms
// cannot go through chaos.Run. Its open-loop driver below is the only
// paced loop in this package outside that runner. A deterministic,
// socket-free twin of the herding half lives in internal/router's tests.

// routerShard is one in-process arlo-server shard behind its wire
// listener.
type routerShard struct {
	name      string
	instances int
	cl        *cluster.Cluster
	srv       *serve.Server
	ln        net.Listener
}

// startRouterShard builds the cluster and server for alloc over the
// {128, 512} runtimes and serves the wire protocol on an ephemeral port.
func startRouterShard(name string, alloc []int, scale float64) (*routerShard, error) {
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, claimSLO)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: alloc,
		TimeScale:         scale,
		Dispatcher:        dispatch.Policy("RS"),
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(tokenizer.New(), cl, serve.WithMaxLength(512), serve.WithShardName(name))
	if err != nil {
		cl.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		cl.Close()
		return nil, err
	}
	s := &routerShard{name: name, cl: cl, srv: srv, ln: ln}
	for _, n := range alloc {
		s.instances += n
	}
	go func() { _ = srv.ServeWire(ln) }()
	return s, nil
}

// close drops the listener, the server (and with it every router
// connection), then the cluster.
func (s *routerShard) close() {
	_ = s.ln.Close()
	_ = s.srv.Close()
	s.cl.Close()
}

// depthPerInstance is the shard's queued work over its capacity, read from
// the same snapshot the router consumes.
func (s *routerShard) depthPerInstance() (depth int, norm float64) {
	for _, lv := range s.srv.LoadSnapshot().Levels {
		depth += int(lv.Depth)
	}
	return depth, float64(depth) / float64(s.instances)
}

// routerAllocs is the deliberately heterogeneous deployment: shard a has
// an eighth of the fleet's capacity but a load-blind policy sends it a
// third of the traffic, so its queues set the tail while load-aware
// scoring routes around it.
var routerAllocs = [][]int{{1, 1}, {3, 3}, {4, 4}}

// routerArm drives the lengths through a fresh 3-shard deployment under
// one policy at 1 s snapshot staleness: open-loop arrivals paced at rps
// (so a policy that overloads one shard diverges instead of throttling
// the workload, as a closed loop would). It returns the client-side
// summary — wall latencies un-scaled to modeled time, so the one
// attainment rule applies — and the capacity-normalised imbalance.
func routerArm(policy router.Policy, lens []int, rps, scale float64, seed int64) (summary, float64, error) {
	var none summary
	shards := make([]*routerShard, len(routerAllocs))
	cfgs := make([]router.ShardConfig, len(routerAllocs))
	for i, alloc := range routerAllocs {
		s, err := startRouterShard(string(rune('a'+i)), alloc, scale)
		if err != nil {
			return none, 0, err
		}
		defer s.close()
		shards[i], cfgs[i] = s, router.ShardConfig{Name: s.name, Addr: s.ln.Addr().String()}
	}
	const refresh = time.Second
	rt, err := router.New(router.Config{Shards: cfgs, Policy: policy, SnapshotRefreshInterval: refresh, MaxLength: 512, Seed: seed})
	if err != nil {
		return none, 0, err
	}
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return none, 0, err
	}
	go func() { _ = rt.ServeWire(rln) }()
	// Let the first background refresh land so no arm starts blind; the
	// arrivals take less than the interval, so that is the only snapshot
	// routing sees. Not a whole interval: a second of idling lets the Go
	// scavenger hand the process's free pages back, and the arm then pays
	// page faults that read as queueing.
	time.Sleep(50 * time.Millisecond)

	clients := make([]*serve.WireClient, 4)
	for i := range clients {
		if clients[i], err = serve.DialWire(rln.Addr().String()); err != nil {
			return none, 0, err
		}
		defer clients[i].Close()
	}
	tokens := make([]uint32, 512)
	for i := range tokens {
		tokens[i] = uint32(i%97 + 1)
	}

	// Imbalance sampler: queue depth per instance on each shard, summed
	// over busy samples; the arm's imbalance is max/mean of those sums
	// (1.0 = queues proportional to capacity).
	stop := make(chan struct{})
	sampled := make(chan struct{})
	normSum := make([]float64, len(shards))
	go func() {
		defer close(sampled)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		norm := make([]float64, len(shards))
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			total := 0
			for i, s := range shards {
				var d int
				d, norm[i] = s.depthPerInstance()
				total += d
			}
			if total < 6 {
				continue // too idle to say anything about balance
			}
			for i, v := range norm {
				normSum[i] += v
			}
		}
	}()

	samples := make([]chaos.Sample, len(lens))
	// Open loop with a bounded-outstanding backstop: at the cap the pacer
	// blocks rather than sheds, so no outcome is dropped from the books.
	sem := make(chan struct{}, 2048)
	interval := time.Duration(float64(time.Second) / rps)
	var wg sync.WaitGroup
	next := time.Now()
	for i := range lens {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			_, err := clients[i%len(clients)].InferTokensCtx(context.Background(), tokens[:lens[i]])
			samples[i] = chaos.Sample{Span: obs.Span{Total: time.Duration(float64(time.Since(t0)) / scale)}, Err: err}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-sampled

	var max, sum float64
	for _, v := range normSum {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return none, 0, fmt.Errorf("arm %s: the shards' queues were never busy enough to sample", policy)
	}
	return summarize(samples, claimSLO, nil), max / (sum / float64(len(normSum))), nil
}

// measureRouter runs a seeded skewed-length trace (70% short, a long tail
// that only fits the 512 bucket) through the three policies at ~70% of
// the fleet's aggregate capacity — above the point where giving the
// eighth-capacity shard a third of the traffic overloads it, below what
// load-proportional routing serves with slack. Every request must
// complete in every arm, and least-loaded, herding onto whichever shard
// the one stale snapshot showed emptiest, must attain less than
// length-aware, whose in-flight correction keeps working between
// snapshots.
func measureRouter(opt Options) (float64, string, error) {
	n := 4800
	if opt.Full {
		n = 16000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	lens := make([]int, n)
	for i := range lens {
		if rng.Float64() < 0.7 {
			lens[i] = 16 + rng.Intn(104) // short: 16..119
		} else {
			lens[i] = 320 + rng.Intn(180) // long: 320..499
		}
	}
	var (
		sums [3]summary
		imb  [3]float64
	)
	// Least-loaded goes first: it collapses on any host, and its backlog
	// faults in the goroutine stacks and buffers the later arms reuse. The
	// first arm of a cold process stalls on those faults for milliseconds,
	// which against a 15 ms wall budget would be charged to its policy.
	for _, pol := range []router.Policy{router.PolicyLeastLoaded, router.PolicyRoundRobin, router.PolicyLengthAware} {
		var err error
		if sums[pol], imb[pol], err = routerArm(pol, lens, 17000, 0.1, opt.Seed); err != nil {
			return 0, "", err
		}
		if err := sums[pol].allCompleted(pol.String()); err != nil {
			return 0, "", err
		}
	}
	la, ll := sums[router.PolicyLengthAware].attainment, sums[router.PolicyLeastLoaded].attainment
	if ll >= la {
		return miss("least-loaded attained %.2f on stale snapshots, no worse than length-aware's %.2f", ll, la)
	}
	return imb[router.PolicyRoundRobin] / imb[router.PolicyLengthAware],
		fmt.Sprintf("imbalance %.2f vs %.2f; attainment %.2f, least-loaded %.2f",
			imb[router.PolicyLengthAware], imb[router.PolicyRoundRobin], la, ll), nil
}
