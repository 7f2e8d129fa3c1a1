# Arlo reproduction — common targets.

GO ?= go

.PHONY: all build test test-short benchmark-check race chaos fuzz bench bench-dispatch bench-obs bench-batch bench-serve bench-ingress bench-generate bench-tenants bench-controller bench-router experiments experiments-full vet staticcheck lint fmt clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# benchmark/ is its own module (it imports internal/ through a replace),
# so the root build and tests do not see it: this is the check that an
# internal API change has not broken the benchmark.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/queue/ ./internal/dispatch/ ./internal/cluster/ ./internal/serve/ ./internal/core/ ./internal/multistream/ ./internal/metrics/ ./internal/tokenizer/ ./internal/obs/ ./internal/failover/ ./internal/chaos/ ./internal/batcher/ ./internal/ring/ ./internal/wire/ ./internal/trace/ ./internal/model/ ./internal/tenant/ ./internal/controller/ ./internal/allocator/ ./internal/router/

# The deterministic fault-injection harness: 500 seeded runs of the live
# cluster under scripted crashes, slowdowns and cancellations, with the
# conservation invariants audited after every run. The ManySeeds pattern
# also matches the batched, generative (continuous batching, per-iteration
# conservation plus full-token-count audit), tenant (encoder and
# generative arms) and controller sweeps; in every sweep odd seeds enter
# through the ingress rings and even seeds through Cluster.SubmitCtx.
chaos:
	$(GO) test -race -run 'TestConservationManySeeds|TestScripted|TestRecovery|TestCrossCheck' -v ./internal/chaos/

# Short local fuzz pass over the checked-in corpora plus 30s of search
# per target (same budget CI uses).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTokenizerEncode -fuzztime 30s ./internal/tokenizer/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceParse$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzGenerativeTraceParse -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzBatchWindow -fuzztime 30s ./internal/batcher/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzTenantConfigParse -fuzztime 30s ./internal/tenant/
	$(GO) test -run '^$$' -fuzz FuzzPlanReplacements -fuzztime 30s ./internal/allocator/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshotDecode -fuzztime 30s ./internal/wire/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The lock-striped dispatch path under increasing parallelism (Fig. 9
# family; the GlobalMutex variant is the pre-striping baseline).
bench-dispatch:
	$(GO) test -bench 'Fig9' -benchmem -cpu 1,4,8 -run=^$$ .

# Observability overhead guard: the Fig. 9 dispatch hot path with the
# observer plane disabled (nil recorder) must stay within ~10% of the
# plain dispatch benchmark, and the On/Off gap is the price of enabling
# metrics. Compare the three ns/op lines by eye or in CI.
bench-obs:
	$(GO) test -bench 'Fig9Dispatch1200Instances|Fig9DispatchObserver' -benchmem -count 3 -run=^$$ .

# Dynamic batching win on the live cluster: drains the Fig. 9 uniform
# burst at batch cap 1 vs 8, then holds 1.25x the sequential throughput
# while checking sustained p99 against the SLO. Writes BENCH_batch.json.
bench-batch:
	$(GO) run ./cmd/arlobench -exp bench-batch

# JSON hot-path allocation guard plus handler- and socket-level serving
# benchmarks (allocs/op is the number to watch).
bench-serve:
	$(GO) test -run TestInferAllocGuard -v ./internal/serve/
	$(GO) test -bench 'InferJSON' -benchmem -run '^$$' ./internal/serve/

# Ingress hot path at the socket: closed-loop RPS/p50/p99/mallocs per
# protocol (JSON vs binary wire), an open-loop target-RPS sweep, and the
# grouped vs per-request submit layer. Writes BENCH_ingress.json.
bench-ingress:
	$(GO) run ./cmd/arlobench -exp bench-ingress

# Continuous (iteration-level) batching vs run-to-completion on a
# generative burst: same prompts and output budgets through both worker
# loops; continuous must win throughput at equal-or-better p99 TTFT.
# Writes BENCH_generate.json.
bench-generate:
	$(GO) run ./cmd/arlobench -exp bench-generate

# Noisy-neighbor isolation on the live cluster: a steady victim tenant
# against a 9x bursting tenant, baseline (shared queue) vs token-bucket
# admission + weighted fair dispatch. The victim's p99 must improve and
# every noisy rejection must be the typed 429. Writes BENCH_tenants.json.
bench-tenants:
	$(GO) run ./cmd/arlobench -exp bench-tenants

# Sharded-tier routing quality: the policy x snapshot-staleness grid
# (length-aware vs round-robin vs least-loaded at immediate/10ms/100ms/1s
# refresh) over three heterogeneous in-process shards, plus a shard-kill
# run whose conservation audit must lose zero requests. Writes
# BENCH_router.json.
bench-router:
	$(GO) run ./cmd/arlobench -exp bench-router

# Closing the control loop on the live cluster: a drifting length mix
# served by a frozen allocation vs the replanning controller (budgeted
# minimal replacements from the observed sliding window). The controller
# arm must win SLO attainment after the drift. Writes BENCH_controller.json.
bench-controller:
	$(GO) run ./cmd/arlobench -exp bench-controller

# Regenerate every table and figure of the paper (quick mode, ~1 min).
experiments:
	$(GO) run ./cmd/arlobench -exp all

# Paper-scale workloads (several minutes).
experiments-full:
	$(GO) run ./cmd/arlobench -exp all -full

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when installed, skip quietly
# in environments that only have the Go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping" ; \
	fi

lint: vet staticcheck

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
