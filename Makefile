# Arlo reproduction — common targets.

GO ?= go

.PHONY: all build test test-short benchmark-check race chaos fuzz bench bench-dispatch bench-obs bench-serve bench-claims experiments experiments-full vet staticcheck lint fmt loc loc-check clean

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
	$(GO) test -race ./internal/queue/ ./internal/dispatch/ ./internal/cluster/ ./internal/serve/ ./internal/core/ ./internal/metrics/ ./internal/tokenizer/ ./internal/obs/ ./internal/failover/ ./internal/chaos/ ./internal/batcher/ ./internal/ring/ ./internal/wire/ ./internal/trace/ ./internal/model/ ./internal/tenant/ ./internal/controller/ ./internal/allocator/ ./internal/router/

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

# Observability overhead guard: every cluster records, so the gap between
# the plain Fig. 9 dispatch benchmark and ObserverOn (the same dispatch
# plus the recorder's submit count, demotion count and span fold) is the
# price of the books. Compare the two ns/op lines by eye or in CI. The 0
# allocs/op half of the pin is not read by eye: TestDispatchAllocGuard
# (tier-1) holds it for every policy and runs first.
bench-obs:
	$(GO) test -run TestDispatchAllocGuard -v ./internal/dispatch/
	$(GO) test -bench 'Fig9Dispatch1200Instances|Fig9DispatchObserverOn' -benchmem -count 3 -run=^$$ .

# JSON hot-path allocation guard plus handler- and socket-level serving
# benchmarks (allocs/op is the number to watch), then the tokenizer every
# request goes through first: its allocation guard and Encode over the
# 8x-sentence text and over harness-like pool text (EncodePool, which
# weights whole-word vocabulary hits the way the benchmark's pool does,
# plus its NonASCII set: accented Latin and CJK, the per-byte path).
bench-serve:
	$(GO) test -run TestInferAllocGuard -v ./internal/serve/
	$(GO) test -bench 'InferJSON' -benchmem -run '^$$' ./internal/serve/
	$(GO) test -run TestEncodeAllocGuard -v ./internal/tokenizer/
	$(GO) test -bench 'BenchmarkEncode$$|BenchmarkEncodePool|BenchmarkSequenceLength' -benchmem -run '^$$' ./internal/tokenizer/

# The asserted A/B claims about the live serving stack (batching,
# continuous batching, tenant isolation, the control loop, routing on
# stale snapshots): every arm runs under the conservation audit, each
# claim is the median of 3 repetitions against a threshold, and the exit
# code is the verdict. Nothing is written to disk; ~1 min.
bench-claims:
	$(GO) run ./cmd/arlobench -exp claim-batch,claim-generate,claim-tenants,claim-controller,claim-router

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

# The house-rule size of the root module: non-blank, non-comment lines of
# non-test Go per package, and their total. "Before -> after" in a PR
# description is this command on both commits.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		files=$$(ls $$dir/*.go | grep -v '_test\.go$$'); \
		[ -z "$$files" ] || echo $$pkg $$(cat $$files | grep -cv '^[[:space:]]*\($$\|//\)'); \
	done | awk '{ printf "%-28s %6d\n", $$1, $$2; t += $$2 } END { printf "%-28s %6d\n", "total", t }'

# The house rule as a gate: the root module's code lines never exceed the
# figure the last simplicity PR ended on. A PR that ends lower lowers it.
LOC_MAX = 11623
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$1 == "total" { print $$2 }'); \
	if [ "$$total" -gt $(LOC_MAX) ]; then \
		echo "make loc total $$total exceeds $(LOC_MAX)"; exit 1; \
	fi; echo "make loc total $$total <= $(LOC_MAX)"

clean:
	$(GO) clean ./...
