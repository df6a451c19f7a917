GO ?= go

.PHONY: ci build test race chaos trace-smoke telemetry-smoke serve-smoke \
	router-smoke sampler-smoke checkpoint-smoke vet fmt bench-comm \
	bench-kernels-diff bench-smoke bench-sampler bench-e2e-smoke \
	purego cross fuzz-smoke frozen hashes gate loc pairs

ci: frozen hashes vet fmt race chaos trace-smoke telemetry-smoke serve-smoke router-smoke \
	sampler-smoke checkpoint-smoke test purego cross fuzz-smoke bench-smoke \
	bench-e2e-smoke

# BENCHMARK.json and benchmark/ are a frozen contract: the gate runs them from
# the parent commit and from the change, and rejects a change that edits them.
# Fails when the working tree differs from BASE there (BASE=<parent commit>
# checks a whole PR rather than the uncommitted part of it).
BASE ?= HEAD
frozen:
	git diff --exit-code $(BASE) -- BENCHMARK.json benchmark/

# The arithmetic-unchanged proof as a command: the loss_hash of seeds 1-3 of
# the five training/cluster workloads, on the vector build (benchmark/run.sh)
# and on a purego flexbench built under run.sh's environment and run from the
# repo root, rewritten in testdata/loss_hashes.json's layout and diffed
# against it. A change that means to move a hash edits that file in the same
# commit. ~30 short runs, a few minutes.
HASH_WORKLOADS = train_gcn_dense train_pinsage_skew train_magnn_hetero cluster_gcn_k2_tcp cluster_pinsage_k2_minibatch
hashes:
	GOCACHE=$(CURDIR)/.bench_build/gocache GOPATH=$(CURDIR)/.bench_build/gopath GOFLAGS=-mod=mod \
		GOTOOLCHAIN=local GOWORK=off $(GO) build -C benchmark -tags purego -o $(CURDIR)/.bench_build/flexbench_purego .
	@set -e; for run in "bash benchmark/run.sh" .bench_build/flexbench_purego; do \
		echo "loss hashes: $$run"; \
		{ echo "{"; sep=""; for w in $(HASH_WORKLOADS); do \
			printf '%b  "%s": {' "$$sep" $$w; sep=',\n'; \
			for s in 1 2 3; do \
				h=$$($$run --workload $$w --seed $$s --seconds 2 --trace 0 2>/dev/null | \
					sed -n 's/.*"loss_hash":"\([0-9a-f]*\)".*/\1/p'); \
				printf '"%s": "%s"' $$s "$$h"; [ $$s = 3 ] || printf ', '; \
			done; printf '}'; \
		done; printf '\n}\n'; } > .bench_build/loss_hashes.got.json; \
		diff -u testdata/loss_hashes.json .bench_build/loss_hashes.got.json; \
	done

# The gate a change must pass, as one command: frozen, hashes, then one
# full pass of the benchmark (seed 1, 12 s per workload). Fails unless every
# workload's last line reads correct:true with failed:0, and prints those
# lines in the form CHANGES.md quotes them. ~20 minutes.
GATE_WORKLOADS = 7
gate: frozen hashes
	@mkdir -p .bench_build; st=0; \
	bash benchmark/run.sh --workload all --seed 1 --seconds 12 --trace 0 > .bench_build/gate.txt 2>&1 || st=$$?; \
	n=0; bad=0; name=; \
	while read -r line; do case "$$line" in \
		"== "*) name=$${line#== }; name=$${name%% *};; \
		'{"correct"'*) n=$$((n+1)); \
			r=$$(echo "$$line" | sed -n 's/^{"correct":\([a-z]*\),"attempted":\([0-9]*\),"failed":\([0-9]*\).*"op_p50_ms":{"value":\([0-9]*\.\{0,1\}[0-9]\{0,3\}\).*/correct:\1, attempted:\2, failed:\3` (op_p50_ms \4)/p'); \
			echo "\`$$name\` \`$$r"; \
			case "$$r" in "correct:true, attempted:"*", failed:0\`"*) ;; *) bad=1;; esac;; \
	esac; done < .bench_build/gate.txt; \
	if [ $$st != 0 ] || [ $$n != $(GATE_WORKLOADS) ] || [ $$bad != 0 ]; then \
		echo "gate: FAILED (exit $$st, $$n of $(GATE_WORKLOADS) workloads reported; log .bench_build/gate.txt)"; exit 1; fi; \
	echo "gate: ok"

# A paired end-to-end claim against BASE, as one command: the benchmark built
# from a git clone of BASE (under .bench_build/pairs) and from the working
# tree, run for the benchmark's 12 s on every seed with the order alternated
# per seed; per workload and end-to-end metric it prints scaled and raw
# medians, wins n/N in the metric's better direction, the parent's quartile
# distance and whether the gap beyond it is a gain or a regression, whether
# loss_hash agrees per seed, both yardstick placements (mod 64) and the
# sentences CHANGES.md quotes. BASE, WORKLOADS and SEEDS are required (no
# default: a claim names seeds it has not spent yet). CONTROL=1 adds a parent
# padded to the change's yardstick placement (cmd/benchpairs says how). Every
# run's last line is kept in .bench_build/pairs/runs.jsonl. Ten pairs of one
# workload: ~8 min.
pairs:
	$(if $(filter command line environment,$(origin BASE)),,$(error pairs: BASE=<commit> is required))
	$(if $(WORKLOADS),,$(error pairs: WORKLOADS='w1 w2' is required))
	$(if $(SEEDS),,$(error pairs: SEEDS=<seed list, e.g. 1-5,9> is required))
	$(GO) run ./cmd/benchpairs -base $(BASE) -workloads '$(WORKLOADS)' -seeds '$(SEEDS)' $(if $(CONTROL),-control)

# The two sizes the simplicity PRs are held to: non-test Go under internal/,
# cmd/ and the root (assembly not counted), and the root package's exported
# names (TestEveryExportHasACaller holds each of those to a caller).
loc:
	@echo "non-test Go lines: $$( { find internal cmd -name '*.go' ! -name '*_test.go'; ls *.go | grep -v _test.go; } | xargs cat | wc -l)"
	@$(GO) test -count=1 -run TestEveryExportHasACaller -v . | grep -o '[0-9]* exports.*'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages the kernel hot path and the communication plane
# touch (includes the fault-injection chaos tests, which live in the rpc,
# collective and cluster packages, and the lock-free span ring / metrics
# registry behind the observability layer), plus the selection path: the
# graph kernels, hdg.Build and the nau driver that fans UDFs over roots —
# and the execution core's own tests, which live in those same packages:
# the layer step (nau), the cross-driver parity legs (serve, cluster) and
# the simulator-vs-cluster loss and byte parity (cluster). The dense path
# rides along: the kernel oracle (tensor) and the fused-Linear parity (nn)
# both run their grids at kernel parallelism 8 here. So do the upper HDG
# levels: the segment oracle (engine/segment_oracle_test.go) sweeps
# parallelism {1, 2, 4} under every strategy under the detector, and the
# bucket scheduler's bit-exactness test runs its hub paths at 2 and 8.
race: chaos
	$(GO) test -race ./internal/tensor/... ./internal/engine/... \
		./internal/nn/... ./internal/models/... \
		./internal/graph/... ./internal/hdg/... ./internal/nau/... \
		./internal/rpc/... ./internal/collective/... ./internal/cluster/... \
		./internal/metrics/... ./internal/trace/... ./internal/serve/... \
		./internal/router/... ./internal/store/... ./internal/telemetry/...

# Fault-injection chaos tests, uncached and under the race detector: crash a
# worker mid-epoch, expire receive deadlines, inject drops/dups/delays, and
# prove every survivor fails fast with a typed error instead of hanging —
# and, for the CrashRestart scenarios, that a cluster restarted from its
# last fenced checkpoint reproduces the uninterrupted run's losses bit for
# bit on a fresh mesh (loopback and TCP, whole-graph and mini-batch).
chaos:
	$(GO) test -race -count=1 -run 'FailFast|Fault|Abort|Timeout|Duplicate|RecvTimeout|Cancel|CrashRestart' \
		./internal/rpc/... ./internal/collective/... ./internal/cluster/... \
		./internal/store/...

# Checkpoint/restore end-to-end smoke: optimizer-state round trips are
# bitwise, v1 files still load, trailing/truncated bytes fail loudly, and
# resume parity holds — N epochs uninterrupted vs k + checkpoint + a fresh
# process running N−k must be bit-identical on a single machine (Adam and
# SGD) and across a k=3 cluster (whole-graph and mini-batch).
checkpoint-smoke:
	$(GO) test -count=1 \
		-run 'Checkpoint|ResumeParity|StateRoundTrip|V1BackwardCompat|Trailing|Truncated|Mismatch|LearningRate' \
		./internal/nn/... ./internal/nau/... ./internal/cluster/...

# Observability end-to-end smoke: a multi-worker loopback epoch with
# tracing and metrics on must yield a parseable Chrome trace with epoch,
# stage and fence spans from every rank, populated fence-wait histograms
# and a per-epoch workload-balance report.
trace-smoke:
	$(GO) test -count=1 -run 'TraceSmoke|BalanceReport' \
		./internal/cluster/... ./internal/trace/... ./internal/metrics/...

# Telemetry-plane end-to-end smoke: a 3-rank loopback run with per-rank
# tracers must leave one merged Chrome trace on rank 0 with clock-aligned
# epoch/fence spans from every rank and resolved cross-rank flow links,
# plus a cluster-wide /metrics view; the chaos variant injects a transport
# crash and asserts every rank leaves a parseable flight-<rank>.json that
# merges offline the way cmd/flexgraph-trace does.
telemetry-smoke:
	$(GO) test -count=1 \
		-run 'TelemetrySmoke|TelemetryFlightOnCrash|ClockSync|PushEpoch|FlightFile|FlightWorthy|Releases|ShutdownNoGoroutineLeak' \
		./internal/cluster/... ./internal/telemetry/... ./internal/trace/... \
		./internal/store/...

# Inference-serving end-to-end smoke: start the server on a real listener,
# fire a concurrent HTTP query burst, and assert the replies are well-formed
# JSON with cache hits and serve spans visible on the observability surface.
serve-smoke:
	$(GO) test -count=1 -run 'ServeSmoke' ./internal/serve/...

# Scale-out serving smoke, under the race detector: 3 InferenceServer
# replicas plus the router on loopback listeners. Asserts routed-vs-single
# bit parity over the wire, per-replica cache hit rate above the unsharded
# baseline and shed counters via /metrics?format=json, a replica kill
# mid-burst survived through ring retry with the victim evicted, p99-SLO
# load shedding with HTTP 429 / typed *OverloadError (and recovery), the
# in-flight cap, hot-vertex overflow replication, and background revival.
router-smoke:
	$(GO) test -race -count=1 -run 'RouterSmoke' ./internal/router/...

# Data-plane end-to-end smoke: a multi-rank loopback mini-batch run with
# prefetch depth 2 must train, populate the sample_wait_ns histogram, and
# spend far less time blocked on the sampler than the epochs took (prefetch
# overlaps training); plus the store-level overlap guard over a feature
# store that sleeps per gather (depth 2 must beat depth 0 by a wide margin).
sampler-smoke:
	$(GO) test -count=1 -run 'SamplerSmoke|PrefetchOverlapBeatsSync' \
		./internal/cluster/... ./internal/store/...

# The reference path of the vector kernels (internal/tensor/simd.go) stays
# compiled and green: the purego tag drops the assembly, so the kernel
# oracles, the strategy sweep and the fused-Linear parity run on the Go loops
# an amd64 CPU without AVX2, or any other architecture, would run.
purego:
	$(GO) test -tags purego ./internal/tensor/... ./internal/engine/... ./internal/nn/...

# Cross-compile only (nothing here runs arm64): the !amd64 side of the build
# constraints has to build.
cross:
	GOARCH=arm64 $(GO) build ./...

# A few seconds of native fuzzing per target on top of the committed seed
# corpora (internal/{tensor,rpc,nn,telemetry,serve}/testdata/fuzz), which plain
# `go test` already runs.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzVecKernelsMatchReference -fuzztime 5s ./internal/tensor/
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 5s ./internal/rpc/
	$(GO) test -run xxx -fuzz FuzzLoadState -fuzztime 5s ./internal/nn/
	$(GO) test -run xxx -fuzz FuzzTelemetryIngest -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzShardReply -fuzztime 5s ./internal/serve/

# vet's asmdecl pass checks internal/tensor/simd_amd64.s against its Go
# declarations.
vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Rerun the kernel microbenchmark suites at full benchtime, regenerate
# BENCH_kernels.latest.json, and check every row of BENCH_kernels.json that
# carries a "bench" field under the policy that has proven stable on this
# host (the sampler's): allocs/op may not exceed the recorded count by more
# than 5% plus 2 (a pooled kernel misses the pool once in a few iterations;
# an allocation per row or per element is hundreds), and ns/op only gets a
# 4x cliff check, because single runs here swing 1.3-2x in wall time with
# the host's CPU state. The dense rows (MatMul/TMatMul/MatMulT at the workloads' shapes)
# run at kernel parallelism 1 and 2 inside the benchmark (/p1, /p2); the upper
# HDG level rows (SegSoftmaxWeighted, SegAttention, AggregateIntermediate) and the MAGNN
# train step run at the train_magnn_hetero shape; the GCN train step and the
# nn rows (the loss, Linear's backward) at the train_gcn_dense shape. The
# trace Span/Record benches ride along into the snapshot ungated (no baseline
# row names them). A perf claim is made with alternated parent/change pairs,
# not with this target.
bench-kernels-diff:
	@{ $(GO) test -run xxx -bench 'Kernel' -benchmem ./internal/tensor/; \
	   $(GO) test -run xxx -bench 'Fused|SegSoftmaxWeighted|SegAttention|AggregateIntermediate' -benchmem ./internal/engine/; \
	   $(GO) test -run xxx -bench 'CrossEntropy|LinearBackward' -benchmem ./internal/nn/; \
	   $(GO) test -run xxx -bench 'TrainStep' -benchmem .; \
	   $(GO) test -run xxx -bench 'Span|Record' -benchmem ./internal/trace/; } \
		| tee /tmp/bench_kernels_diff.txt
	$(GO) run ./cmd/benchdiff -max-regress 4.0 -max-alloc-regress 0.05 -alloc-slack 2 /tmp/bench_kernels_diff.txt

# Short-iteration bench smoke for ci: a handful of iterations per benchmark
# (twenty for the kernel rows since PR 24: most of them are now under a
# millisecond, and five iterations of such a row are one scheduler or GC
# hiccup away from the cliff), checked against the baselines with a
# deliberately loose 4x bound. This is
# not a performance gate — it proves the bench harnesses still compile,
# every baseline row still exists under its recorded name, and nothing fell
# off a cliff, in seconds instead of minutes. Kernel rows check against
# BENCH_kernels.json, the NeighborSelection, ServeBatch and Expand rows
# against BENCH_sampler.json (Expand is microseconds an iteration, so it gets
# 2000 of them; a SamplerEpoch iteration is a whole epoch, so 5); both also
# gate allocs/op at +5%, which repeats exactly on any host.
bench-smoke:
	@{ $(GO) test -run xxx -bench 'Kernel' -benchtime 20x -benchmem ./internal/tensor/; \
	   $(GO) test -run xxx -bench 'Fused|SegSoftmaxWeighted|SegAttention|AggregateIntermediate' -benchtime 20x -benchmem ./internal/engine/; \
	   $(GO) test -run xxx -bench 'CrossEntropy|LinearBackward' -benchtime 20x -benchmem ./internal/nn/; \
	   $(GO) test -run xxx -bench 'TrainStep' -benchtime 20x -benchmem .; } \
		> /tmp/bench_kernels_smoke.txt 2>&1 || { cat /tmp/bench_kernels_smoke.txt; exit 1; }
	$(GO) run ./cmd/benchdiff -max-regress 4.0 -max-alloc-regress 0.05 -alloc-slack 2 \
		-write-latest /tmp/bench_kernels_smoke.latest.json /tmp/bench_kernels_smoke.txt
	@{ $(GO) test -run xxx -bench 'NeighborSelection' -benchtime 5x -benchmem ./internal/nau/; \
	   $(GO) test -run xxx -bench 'ServeBatch' -benchtime 5x -benchmem ./internal/serve/; \
	   $(GO) test -run xxx -bench 'Expand' -benchtime 2000x -benchmem ./internal/store/; \
	   $(GO) test -run xxx -bench 'SamplerEpoch' -benchtime 5x -benchmem ./internal/store/; } \
		> /tmp/bench_sampler_smoke.txt 2>&1 || { cat /tmp/bench_sampler_smoke.txt; exit 1; }
	$(GO) run ./cmd/benchdiff -baseline BENCH_sampler.json -max-regress 4.0 -max-alloc-regress 0.05 \
		-write-latest /tmp/bench_sampler_smoke.latest.json /tmp/bench_sampler_smoke.txt

# The end-to-end benchmark's own checks (its module is separate, so `go vet
# ./...` and `go test ./...` at the root do not reach it): vet, then the
# tests that run every workload once in a tiny configuration.
bench-e2e-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# Input-side benchmarks: NeighborSelection end to end (driver, kernels, UDF,
# hdg.Build), the serve batch (plan + execute) with the store.Expand under
# it, and one rank's mini-batch sampler epoch.
# Writes a machine-readable snapshot to BENCH_sampler.latest.json. The gate
# that means something is allocs/op (+5%): single runs on a shared host swing
# 1.3-2x in wall time, so ns/op only gets the same loose 4x cliff check as
# bench-smoke.
bench-sampler:
	@{ $(GO) test -run xxx -bench 'NeighborSelection' -benchmem ./internal/nau/; \
	   $(GO) test -run xxx -bench 'ServeBatch' -benchmem ./internal/serve/; \
	   $(GO) test -run xxx -bench 'Expand|SamplerEpoch' -benchmem ./internal/store/; } \
		| tee /tmp/bench_sampler.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_sampler.json -max-regress 4.0 -max-alloc-regress 0.05 \
		-write-latest BENCH_sampler.latest.json /tmp/bench_sampler.txt

# Codec microbenchmarks; writes the current machine's numbers to
# BENCH_comm.latest.json (BENCH_comm.json holds the recorded before/after
# rows; none carries a "bench" field, so nothing is gated).
bench-comm:
	@$(GO) test -run xxx -bench 'Codec' -benchmem ./internal/rpc/ | tee /tmp/bench_comm.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_comm.json -write-latest BENCH_comm.latest.json /tmp/bench_comm.txt
