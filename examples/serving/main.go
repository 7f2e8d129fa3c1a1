// Serving: the end-to-end text path — spin up the HTTP front end over an
// Arlo-scheduled emulated cluster in-process, classify a few texts of very
// different lengths, and show how the tokenized length drives which
// runtime serves each request.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"strings"

	"arlo/internal/core"
	"arlo/internal/serve"
	"arlo/internal/tokenizer"
)

func main() {
	a, err := core.NewSystem(core.WithModel("bert-base"))
	if err != nil {
		log.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	tok := tokenizer.New()
	srv, err := serve.New(tok, cl, serve.WithMaxLength(a.Model.Arch().MaxLength))
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	fmt.Printf("serving %s behind %s with 8 emulated GPUs\n\n", a.Model.Arch().Name, ts.URL)

	texts := []string{
		"good morning twitter",
		"check out this video of the game last night, the team played so well and the final minutes were unbelievable",
		strings.Repeat("the quick brown fox jumps over the lazy dog and keeps running through the long winding story of the day ", 12),
	}
	for i, text := range texts {
		resp, err := client.Infer(text)
		if err != nil {
			log.Fatal(err)
		}
		ideal, _ := a.Profile.IdealRuntime(resp.SequenceLength)
		fmt.Printf("text %d: %d chars -> %d tokens -> ideal runtime max_length %d\n",
			i+1, len(text), resp.SequenceLength, a.Profile.Runtimes[ideal].MaxLength)
		fmt.Printf("        label=%q latency=%.2f ms (queue %.2f ms, exec %.2f ms, %d demotion hops, instance %d at level %d)\n",
			resp.Label, resp.LatencyMS, resp.QueueMS, resp.ExecMS, resp.DemotionHops, resp.Instance, resp.Runtime)
	}

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	// /v1/stats reads the same recorder /metrics does: the percentiles are
	// the nearest-rank histogram bucket's upper bound (125 us * 2^k) over
	// the recorder's window, not exact samples.
	fmt.Printf("\nserver stats: served=%d rejected=%d instances=%d p50<=%gms p98<=%gms\n",
		stats.Served, stats.Rejected, stats.Instances, stats.P50MS, stats.P98MS)

	// The same lifecycle data aggregates into the Prometheus exposition:
	// a live deployment would point a scraper at GET /metrics.
	body, err := client.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics lines:")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "arlo_requests_") || strings.HasPrefix(line, "arlo_queue_depth") {
			fmt.Println("  " + line)
		}
	}
}
