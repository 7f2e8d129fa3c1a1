// Command arlo-server runs the HTTP serving front end over an Arlo-
// scheduled emulated GPU cluster: POST /v1/infer with {"text": "..."}
// tokenizes the input, dispatches it by sequence length through the
// Request Scheduler, and returns the (emulated) classification with the
// measured latency.
//
// Usage:
//
//	arlo-server -addr :8080 -model bert-base -gpus 8
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/core"
	"arlo/internal/serve"
	"arlo/internal/tenant"
	"arlo/internal/tokenizer"
	"arlo/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		model      = flag.String("model", "bert-base", "model preset (bert-base, bert-large)")
		gpus       = flag.Int("gpus", 8, "emulated GPU count")
		policy     = flag.String("policy", "RS", "dispatch policy (RS, ILB, IG, LL, INFaaS)")
		ctrlOn     = flag.Bool("controller", false, "run the closed control loop (live replanning + autoscaling)")
		ctrlPeriod = flag.Duration("controller-period", 15*time.Second, "control-loop replanning period")
		ctrlScaler = flag.String("controller-scaler", "target", "autoscaler: target (p98 tracking), headroom (utilization), none")
		ctrlBudget = flag.Int("controller-budget", 0, "max instance replacements per replanning period (0 = default, negative = unlimited)")
		ctrlDryRun = flag.Bool("controller-dry-run", false, "control loop plans and reports but never mutates the cluster")
		reqTimeout = flag.Duration("request-timeout", 0, "server-side per-request timeout (0 disables)")
		pprofOn    = flag.Bool("pprof", false, "expose /debug/pprof/ runtime profiles")
		chaosOn    = flag.Bool("chaos", false, "expose /v1/chaos/ fault-injection endpoints (testing only)")
		batchSize  = flag.Int("batch-size", 1, "dynamic batching cap per instance (<=1 disables)")
		batchDelay = flag.Duration("batch-delay", 0, "batch collection window (0 = SLO/100, negative = greedy)")
		continuous = flag.Bool("continuous", false, "iteration-level (continuous) batching for generative workloads")
		meanOut    = flag.Float64("mean-out-tokens", 0, "expected output length hint for continuous capacity planning (0 = default 16)")
		wireAddr   = flag.String("wire-addr", "", "binary wire-protocol listen address (empty disables, e.g. :8081)")
		ingressOn  = flag.Bool("ingress", false, "submit through sharded ingress rings drained in groups")
		ingressGrp = flag.Int("ingress-group", 0, "ingress drain group size (0 = default)")
		tenantsCfg = flag.String("tenants-config", "", "JSON tenant config file enabling multi-tenant admission and fair sharing")
		shardName  = flag.String("shard", "", "shard name for router registration (requires -wire-addr)")
	)
	flag.Parse()
	if *shardName != "" && *wireAddr == "" {
		log.Fatal("arlo-server: -shard requires -wire-addr (routers reach shards over the binary protocol)")
	}

	sysOpts := []core.Option{
		core.WithModel(*model),
		core.WithDispatchPolicy(*policy),
		core.WithBatching(*batchSize, *batchDelay),
	}
	if *continuous {
		sysOpts = append(sysOpts, core.WithContinuousBatching(*batchSize, *meanOut))
	}
	if *tenantsCfg != "" {
		data, err := os.ReadFile(*tenantsCfg)
		if err != nil {
			log.Fatalf("arlo-server: tenants config: %v", err)
		}
		cfgs, err := tenant.ParseConfig(data)
		if err != nil {
			log.Fatalf("arlo-server: tenants config: %v", err)
		}
		sysOpts = append(sysOpts, core.WithTenants(cfgs...))
	}
	a, err := core.NewSystem(sysOpts...)
	if err != nil {
		log.Fatalf("arlo-server: %v", err)
	}
	// Allocate for a Twitter-shaped demand mix until real traffic
	// statistics accumulate.
	q := make([]float64, len(a.Profile.Runtimes))
	for i := range q {
		q[i] = 100.0 / float64(i+1)
	}
	cl, err := a.NewCluster(*gpus, q)
	if err != nil {
		log.Fatalf("arlo-server: %v", err)
	}
	defer cl.Close()

	// The control loop and the server both read the cluster's one recorder;
	// WithController exposes the loop at /v1/controller.
	var ctrl *controller.Controller
	if *ctrlOn {
		opts := controller.Options{
			Period:          *ctrlPeriod,
			MaxReplacements: *ctrlBudget,
			DryRun:          *ctrlDryRun,
		}
		switch *ctrlScaler {
		case "target":
			opts.Scaler, err = allocator.NewAutoScaler(a.SLO())
			if err != nil {
				log.Fatalf("arlo-server: %v", err)
			}
		case "headroom":
			opts.Scaler = &allocator.HeadroomScaler{}
		case "none":
		default:
			log.Fatalf("arlo-server: unknown -controller-scaler %q (want target, headroom or none)", *ctrlScaler)
		}
		ctrl, err = a.NewController(cl, opts)
		if err != nil {
			log.Fatalf("arlo-server: %v", err)
		}
	}

	srvOpts := []serve.Option{serve.WithMaxLength(a.Model.Arch().MaxLength)}
	if ctrl != nil {
		srvOpts = append(srvOpts, serve.WithController(ctrl))
	}
	if *reqTimeout > 0 {
		srvOpts = append(srvOpts, serve.WithRequestTimeout(*reqTimeout))
	}
	if *pprofOn {
		srvOpts = append(srvOpts, serve.WithPprof())
	}
	if *chaosOn {
		srvOpts = append(srvOpts, serve.WithChaos())
		fmt.Println("arlo-server: chaos endpoints enabled at /v1/chaos/{fail,slow,restore}")
	}
	if *ingressOn || *ingressGrp > 0 {
		srvOpts = append(srvOpts, serve.WithIngress(cluster.IngressConfig{MaxGroup: *ingressGrp}))
	}
	if *shardName != "" {
		srvOpts = append(srvOpts, serve.WithShardName(*shardName))
	}
	srv, err := serve.New(tokenizer.New(), cl, srvOpts...)
	if err != nil {
		log.Fatalf("arlo-server: %v", err)
	}
	defer srv.Close()
	if *ingressOn || *ingressGrp > 0 {
		fmt.Println("arlo-server: ring ingress on (grouped submit); watch arlo_ingress_wait_seconds on /metrics")
	}
	if *wireAddr != "" {
		wl, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("arlo-server: wire listener: %v", err)
		}
		go func() {
			if err := srv.ServeWire(wl); err != nil {
				log.Printf("arlo-server: wire listener: %v", err)
			}
		}()
		fmt.Printf("arlo-server: binary wire protocol on %s\n", *wireAddr)
		if *shardName != "" {
			fmt.Printf("arlo-server: serving as shard %q; load snapshots at /v1/load and wire kind %d\n",
				*shardName, wire.KindLoadRequest)
		}
	}
	if ctrl != nil {
		ctrl.Start()
		defer ctrl.Stop()
		mode := ""
		if *ctrlDryRun {
			mode = ", dry-run"
		}
		fmt.Printf("arlo-server: control loop active (period %v, scaler %s%s); status at /v1/controller\n",
			*ctrlPeriod, *ctrlScaler, mode)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		httpSrv.Close()
	}()
	fmt.Printf("arlo-server: %s on %s with %d emulated GPUs (%d runtimes, policy %s, SLO %v); metrics at /metrics\n",
		*model, *addr, *gpus, len(a.Profile.Runtimes), *policy, a.SLO())
	if *tenantsCfg != "" {
		fmt.Printf("arlo-server: multi-tenant mode on (%s); admin at /v1/tenants, watch arlo_admission_total on /metrics\n",
			*tenantsCfg)
	}
	if *continuous {
		fmt.Printf("arlo-server: continuous (iteration-level) batching on (slots %d); POST /v1/generate, watch arlo_ttft_seconds on /metrics\n",
			*batchSize)
	} else if *batchSize > 1 {
		fmt.Printf("arlo-server: dynamic batching on (cap %d, window %v); watch arlo_batch_size on /metrics\n",
			*batchSize, *batchDelay)
	}
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("arlo-server: %v", err)
	}
}
