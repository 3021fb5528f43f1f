# Convenience targets for the iCache reproduction. Everything is plain
# stdlib Go; the Makefile only wraps the commands the README documents.

GO ?= go

.PHONY: all build vet lint test test-short test-race chaos bench bench-serving bench-obs bench-peer bench-dir bench-loadgen bench-overload bench-prefetch bench-e2e loadgen-smoke obs-smoke overload-smoke prefetch-smoke experiments experiments-quick fuzz fuzz-short clean

all: build lint test test-race chaos fuzz-short obs-smoke overload-smoke loadgen-smoke prefetch-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint gate: gofmt must produce no diffs (the target fails listing the
# offending files) and go vet must be clean. Subsumes `vet` in `make all`.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite under the race detector (the chaos tests double as lock
# coverage for every networked component, and the concurrent-clients
# suites in internal/rpc exercise the sharded store / singleflight /
# prefetch-pool interleavings).
test-race:
	$(GO) test -race ./...

# Chaos suites only, three times with rotating seeds: -count defeats the
# test cache, and the suites' internal seed tables ([1, 42, 1337], the
# trial indices, and the injector seeds) cover distinct schedules per run.
# internal/dkv carries the partitioned-directory half: three real replica
# processes over TCP with one killed mid-epoch.
chaos:
	$(GO) test -count=3 -run 'Chaos' ./internal/icache/ ./internal/rpc/ ./internal/dkv/
	$(GO) test -count=3 -race -run 'Chaos' ./internal/icache/ ./internal/rpc/ ./internal/dkv/

# One testing.B benchmark per paper table/figure (quick scale).
bench:
	$(GO) test -bench . -benchmem

# Serving-path throughput + allocation benchmarks (the PR 2 sharded-lock /
# miss-coalescing / buffer-pool work), archived as JSON. -count=5 gives
# five raw measurements per benchmark; icache-benchjson keeps them all.
bench-serving:
	$(GO) test -run NONE -bench 'ServeConcurrent|ServeHotSet' -benchmem -count=5 ./internal/rpc/ > /tmp/bench_serving.txt
	$(GO) test -run NONE -bench . -benchmem -count=5 ./internal/wire/ >> /tmp/bench_serving.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_serving.json < /tmp/bench_serving.txt

# Observability smoke: the exposition goldens (Prometheus text + pinned
# JSON bytes + the byte-pinned /debug/timeline document), the
# histogram/quantile property tests, the directory's traced lookups and
# request-header rejection table, the two-node cross-node hop-chain round
# trips (including the chaos variant with injected peer faults), the decision-ledger conservation
# identities, the journal/timeline concurrency suite, and the icache-top
# scrape/render path against a fake two-node cluster. Fast enough to gate
# `make all` on; -count=1 defeats the test cache so the goldens are
# re-checked every run.
obs-smoke:
	$(GO) test -count=1 ./internal/obs/ ./internal/trace/ ./internal/top/
	$(GO) test -count=1 -run 'TestMetricsJSONBytesUnchanged|TestPrometheusExposition|TestTraced|TestSlowRequest|TestObs|TestDebugObs|TestDecisionLedger|TestJournalRecords|TestTimelinePoint' ./internal/rpc/
	$(GO) test -count=1 -run 'TestDirTraced|TestDirHeader|TestDirObs' ./internal/dkv/

# Batched remote data plane benchmark (the PR 5 scatter-gather work): two
# cache nodes over loopback, eight miss-heavy clients hammering a hot set
# the OTHER node owns. Each mini-batch costs one directory multi-lookup and
# one opPeerGetBatch, pipelined over the peer connection.
bench-peer:
	$(GO) test -run NONE -bench 'PeerHotSet' -benchmem -count=5 ./internal/rpc/ > /tmp/bench_peer.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_peer.json < /tmp/bench_peer.txt

# Partitioned-directory scaling benchmark (the PR 6 sharding work): a
# simulated 100-node cluster drives closed-loop LookupBatch traffic through
# a real ShardedDir whose replicas are virtual-time FIFO resources, at 1, 2
# and 4 shards. Lookup throughput (simlookups/sec) should scale
# near-linearly: >= 1.7x at 2 shards and >= 3x at 4 vs. 1.
bench-dir:
	$(GO) test -run NONE -bench 'DirSharded' -count=5 ./internal/dkv/ > /tmp/bench_dir.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_dir.json < /tmp/bench_dir.txt

# Open-loop load-harness gate (the PR 7 zero-copy hit path): an 8-client
# hot-set saturation storm through internal/loadgen, archived as JSON and
# then compared against the archived PR 5 baseline — the target FAILS when
# samples/sec falls more than 10% below the baseline or allocs/op rises,
# so the zero-copy win is a standing regression gate, not a one-off
# measurement. -cpu 1 for the same reason as bench-overload.
bench-loadgen:
	$(GO) test -run NONE -bench 'Loadgen$$' -benchmem -count=3 -cpu 1 ./internal/loadgen/ > /tmp/bench_loadgen.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_loadgen.json < /tmp/bench_loadgen.txt
	$(GO) run ./cmd/icache-benchjson -check BENCH_loadgen.json

# Overload-control gate (the PR 8 admission/deadline/breaker work): a
# slot-limited server with a latency-charging backend takes a 2x open-loop
# storm through internal/loadgen. The headline samples/sec is GOODPUT —
# on-time completions only — archived as JSON and compared against the
# archived baseline, so the target FAILS when goodput under overload falls
# more than 10% or allocs/op rises. The benchmark itself additionally
# fails on queue collapse (storm goodput under 80% of the measured
# capacity knee) or on a request-conservation leak. Runs at -cpu 1 because
# the archive was recorded at GOMAXPROCS=1 and -check compares benchmarks by
# name (a multi-CPU run suffixes every name with -N).
bench-overload:
	$(GO) test -run NONE -bench 'LoadgenOverload' -benchmem -count=3 -cpu 1 ./internal/loadgen/ > /tmp/bench_overload.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_overload.json < /tmp/bench_overload.txt
	$(GO) run ./cmd/icache-benchjson -check BENCH_overload.json

# Overload-control smoke: the admission gate / circuit breaker / deadline
# unit surface plus the end-to-end shed and goodput classification paths.
# Fast enough to gate `make all` on; -count=1 defeats the test cache.
overload-smoke:
	$(GO) test -count=1 ./internal/overload/
	$(GO) test -count=1 -run 'TestAdmissionShed|TestDeadline|TestRunOverloadClassification|TestRunGoodputTracksDeadline' ./internal/rpc/ ./internal/loadgen/

# Two-second self-contained loadgen smoke (boots its own server, drives a
# short saturation run, fails on any request error): gates `make all` so
# the harness binary itself cannot rot.
loadgen-smoke:
	$(GO) run ./cmd/icache-loadgen -smoke

# Clairvoyant-prefetch gate (the planned cross-epoch pre-placement work):
# the same epoch-boundary workload runs reactive and clairvoyant; the
# benchmark FAILS unless warm-epoch cold misses drop >= 10x and the
# prefetch in-time ratio reaches 0.9. The clairvoyant run's samples/sec,
# cold-miss count and in-time ratio are archived as JSON and compared
# against the archived baseline (-check fails the build on a >10%
# throughput regression or an allocs/op rise). -cpu 1 for the same reason
# as bench-overload.
bench-prefetch:
	$(GO) test -run NONE -bench 'PrefetchEpochs' -benchmem -count=3 -cpu 1 ./internal/loadgen/ > /tmp/bench_prefetch.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_prefetch.json < /tmp/bench_prefetch.txt
	$(GO) run ./cmd/icache-benchjson -check BENCH_prefetch.json

# Sub-second self-contained clairvoyant smoke (boots an in-process planning
# server, pushes each epoch's schedule ahead of its accesses, asserts later
# epochs run nearly cold-miss-free and the prefetch-outcome ledger stays
# exactly conserved): gates `make all` so the planner cannot rot.
prefetch-smoke:
	$(GO) run ./cmd/icache-loadgen -prefetch-smoke

# End-to-end benchmark (perfbench/, declared in BENCHMARK.json): boots the
# live stack in process over loopback against a backend that charges the
# storage cost model in wall time, and prints one JSON line of end-to-end
# metrics per workload (epoch time, stall fraction, hit ratio, throughput,
# batch latency quantiles, setup time, live heap). About a minute per
# workload; build artifacts stay under .bench_build/.
bench-e2e:
	@for w in train-1node train-2node-plan hotset-serve; do \
		bash perfbench/run.sh --workload $$w --trace 0 || exit 1; \
	done

# Observability overhead benchmark (off vs histograms-armed vs every
# request traced vs fully armed with journal+timeline, on the 8-client
# miss-heavy workload), archived as JSON.
bench-obs:
	$(GO) test -run NONE -bench 'ObsOverhead' -benchmem -count=5 ./internal/rpc/ > /tmp/bench_obs.txt
	$(GO) run ./cmd/icache-benchjson -label after -update BENCH_obs.json < /tmp/bench_obs.txt

# Regenerate the full evaluation at paper scale (~4 minutes).
experiments:
	$(GO) run ./cmd/icache-bench -exp all

experiments-quick:
	$(GO) run ./cmd/icache-bench -exp all -quick

# Short fuzz passes over the wire-facing decoders (with exploration).
fuzz:
	$(GO) test -fuzz FuzzServerDispatch -fuzztime 30s ./internal/rpc/
	$(GO) test -fuzz FuzzDirDispatch -fuzztime 30s ./internal/dkv/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzReader -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzVec -fuzztime 15s ./internal/wire/

# Seed-corpus-only fuzz pass: runs every fuzz target's checked-in seeds as
# plain tests (no exploration), fast enough to gate `make all` on. Covers
# the cache service's frame entry (the retired opcodes 6/7/9/10, truncated
# headers, bad budgets and hops, and stray directory-replica opcodes), the
# directory's frame entry (the membership, multi-lookup, ring-view-exchange
# and shard hand-off opcodes, the retired envelope opcodes 10/14, truncated
# headers, bad budgets and hops), and the wire framing.
fuzz-short:
	$(GO) test -run 'FuzzServerDispatch' -count=1 ./internal/rpc/
	$(GO) test -run 'FuzzDirDispatch' -count=1 ./internal/dkv/
	$(GO) test -run 'FuzzReadFrame|FuzzReader|FuzzVec' -count=1 ./internal/wire/

clean:
	$(GO) clean -testcache
