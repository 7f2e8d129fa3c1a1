// Command arlo-router runs the stateless routing tier in front of N
// arlo-server shards: it speaks the same JSON and binary protocols a
// single server does, picks a shard per request with length-aware
// least-loaded scoring against asynchronously refreshed load snapshots,
// and re-routes around dead shards under a bounded hop budget.
//
// Usage:
//
//	arlo-server -addr :8081 -wire-addr :9081 -shard a &
//	arlo-server -addr :8082 -wire-addr :9082 -shard b &
//	arlo-router -addr :8080 -shards a=localhost:9081,b=localhost:9082
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"arlo/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		wireAddr = flag.String("wire-addr", "", "binary wire-protocol listen address (empty disables)")
		shards   = flag.String("shards", "", "comma-separated shard wire addresses, each name=host:port (name optional)")
		policy   = flag.String("policy", "length-aware", "routing policy (length-aware, round-robin, least-loaded)")
		refresh  = flag.Duration("snapshot-refresh", router.DefaultSnapshotRefresh, "load snapshot refresh interval")
		hops     = flag.Int("hop-budget", 0, "max reroute hops per request (0 = failover default)")
		maxLen   = flag.Int("max-len", 512, "tokenizer cap; keep equal to the shards' model max length")
		seed     = flag.Int64("seed", 0, "power-of-two-choices sampler seed (0 = 1)")
	)
	flag.Parse()

	cfg := router.Config{
		SnapshotRefreshInterval: *refresh,
		HopBudget:               *hops,
		MaxLength:               *maxLen,
		Seed:                    *seed,
	}
	var err error
	if cfg.Policy, err = router.ParsePolicy(*policy); err != nil {
		log.Fatalf("arlo-router: %v", err)
	}
	if *shards == "" {
		log.Fatal("arlo-router: -shards is required (e.g. -shards a=localhost:9081,b=localhost:9082)")
	}
	for _, spec := range strings.Split(*shards, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		sc := router.ShardConfig{Addr: spec}
		if name, rest, ok := strings.Cut(spec, "="); ok {
			sc = router.ShardConfig{Name: name, Addr: rest}
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	rt, err := router.New(cfg)
	if err != nil {
		log.Fatalf("arlo-router: %v", err)
	}
	defer rt.Close()

	if *wireAddr != "" {
		wl, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("arlo-router: wire listener: %v", err)
		}
		go func() {
			if err := rt.ServeWire(wl); err != nil {
				log.Printf("arlo-router: wire listener: %v", err)
			}
		}()
		fmt.Printf("arlo-router: binary wire protocol on %s\n", *wireAddr)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		httpSrv.Close()
	}()
	fmt.Printf("arlo-router: fronting %d shards on %s (policy %s, snapshot refresh %v); health at /healthz, metrics at /metrics\n",
		len(cfg.Shards), *addr, cfg.Policy, *refresh)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("arlo-router: %v", err)
	}
}
