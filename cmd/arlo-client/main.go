// Command arlo-client drives an arlo-server with a synthetic text
// workload and reports latency statistics.
//
// Usage:
//
//	arlo-client -url http://127.0.0.1:8080 -rate 100 -duration 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"arlo/internal/metrics"
	"arlo/internal/serve"
	"arlo/internal/trace"
)

// sampleWords feed the synthetic text generator; lengths are driven by the
// Twitter-calibrated distribution.
var sampleWords = strings.Fields(`the of and a to in is it you that was for
on are with as his they be at one have this from or had by word but what
some we can out other were all there when up use your how said each she
which do their time if will way about many then them write would like so
these her long make thing see him two has look more day could go come did
number sound no most people my over know water than call first who may down
side been now find`)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "arlo-server base URL")
		rate     = flag.Float64("rate", 50, "request rate (req/s)")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		seed     = flag.Int64("seed", 1, "workload seed")
		workers  = flag.Int("workers", 64, "maximum concurrent requests")
		timeout  = flag.Duration("timeout", 0, "per-attempt request timeout (0 disables)")
		retries  = flag.Int("retries", 0, "retries per request on transient failures")
		backoff  = flag.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per retry)")
	)
	flag.Parse()
	if *workers < 1 {
		log.Fatalf("arlo-client: -workers must be at least 1, got %d", *workers)
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		log.Fatalf("arlo-client: -rate must be a positive, finite number of req/s, got %v", *rate)
	}

	rng := rand.New(rand.NewSource(*seed))
	lengths := trace.TwitterRecalibrated(*seed)
	client := &serve.Client{
		BaseURL:    *url,
		Timeout:    *timeout,
		MaxRetries: *retries,
		Backoff:    *backoff,
	}

	var (
		mu   sync.Mutex
		lats []time.Duration
		errs int
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, *workers)
	interval := time.Duration(float64(time.Second) / *rate)
	start := time.Now()
	n := 0
	for time.Since(start) < *duration {
		text := makeText(rng, lengths.SampleLength(rng, time.Since(start)))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := client.Infer(text)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			lats = append(lats, time.Duration(resp.LatencyMS*float64(time.Millisecond)))
		}()
		n++
		next := start.Add(time.Duration(n) * interval)
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
	}
	wg.Wait()

	if len(lats) == 0 {
		log.Fatalf("arlo-client: no successful requests (%d errors)", errs)
	}
	fmt.Printf("sent %d requests, %d errors\n", n, errs)
	fmt.Println(metrics.Summarize(lats, 0))
	stats, err := client.Stats()
	if err == nil {
		fmt.Printf("server: served=%d rejected=%d instances=%d\n", stats.Served, stats.Rejected, stats.Instances)
	}
}

// makeText produces text that tokenizes to roughly targetTokens.
func makeText(rng *rand.Rand, targetTokens int) string {
	words := targetTokens - 2 // CLS/SEP overhead
	if words < 1 {
		words = 1
	}
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sampleWords[rng.Intn(len(sampleWords))])
	}
	return b.String()
}
