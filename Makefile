GO ?= go

.PHONY: check build vet fmt-check test race bench bench-smoke bench-obs bench-hotpath bench-columnar bench-contend bench-sample bench-floor inline-guard smoke-obs chaos fuzz-smoke loc clean

## check: everything CI runs — build, vet, gofmt, full tests, race tests on the
## concurrent packages, the golden reports and the lane and hot-path
## differentials under the race detector, the hot-path acceptance gate, the
## live /metrics + /statusz smoke, a short fuzz pass over the salvaging
## decoders, and one iteration of every benchmark. This is the single command
## to run before pushing.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/trace/... ./internal/core/... ./internal/par/... ./internal/sample/... ./cmd/dsspy/
	$(GO) test -race -run 'Golden|Streaming|HotPath|Columnar|Contend|Contention|Sample' .
	$(MAKE) bench-hotpath
	$(MAKE) bench-columnar
	$(MAKE) bench-contend
	$(MAKE) bench-sample
	$(MAKE) bench-floor
	$(MAKE) smoke-obs
	$(MAKE) chaos
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt-check: fails listing every Go file gofmt would rewrite (the
## benchmark's build directory is skipped).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -l flags:"; echo "$$out"; exit 1; fi; \
	echo "fmt-check: gofmt clean"

test:
	$(GO) test ./...

## race: the concurrency-sensitive packages plus the root package's
## sharded-pipeline tests under the race detector.
race:
	$(GO) test -race ./internal/obs/... ./internal/trace/... ./internal/core/... ./cmd/dsspy/ .

## bench: the sharded-collection and streaming-pipeline benchmarks from
## EXPERIMENTS.md (the live-heap-MB metric must stay flat when the event
## count doubles from 1M to 2M), the overload-policy producer-latency
## comparison, the daemon's tenant read (merge and render of a full
## closed-window ring plus the open window), the daemon's ingest (two
## tenants' 1024-event frames through TenantEvents beside a report reader;
## ns/event and B/event), and the Table IV hot path (BindDefault's sole
## producer into a 2-shard streaming collector and analyzer on CPU Benchmarks
## and Mandelbrot, a GC before each op; ns/event and B/event), and the
## drain's fold alone (the same apps' retained shard batches through
## FeedShard; wall and getrusage CPU ns/event).
bench:
	$(GO) test -run xxx -bench 'Collect1M|Pipeline[12]MStreamed|Overload|DaemonTenantReport|DaemonIngest|SoleProducerPipeline|DrainFold' -benchmem -benchtime 5x -count 5 . ./internal/core/

## bench-smoke: every benchmark of the module for one iteration. The timings
## mean nothing; it fails when a benchmark's own answer check (b.Fatal) does,
## so a benchmark broken by a refactor is caught by CI.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-obs: the observability-plane overhead pair — producer-side Record
## cost with the plane off vs fully on (self-tracer, queue-depth sampling,
## timed recorder). Acceptance: obs-on ns/op within 5% of obs-off.
bench-obs:
	$(GO) test ./internal/trace/ -run xxx -bench 'RecordObs' -benchmem -benchtime 2s -count 5

## bench-hotpath: the hot-path overhaul's acceptance gates and benchmarks.
## Gates: sampled p50 per-event Record cost through Bind-batched delivery
## must be ≥3× lower than per-event Emit on the 8-producer sharded workload
## (DSSPY_HOTPATH_GATE=1 enables the wall-clock half), and the v3 columnar
## wire format must spend ≤1/3 the bytes/event of v2 on a corpus-like stream.
## Benchmarks: Emit-vs-Bind ns/event, the collector hand-off of flushes whose
## instances alternate across shards — producer columns handed over whole
## and the []Event adapter's scatter — and the goroutine-id fast path.
bench-hotpath:
	DSSPY_HOTPATH_GATE=1 $(GO) test ./internal/trace/ -run 'TestHotPathLatencyGate|TestV3BytesPerEventGate' -v -count 1
	$(GO) test ./internal/trace/ -run xxx -bench 'HotPath|ProducerFlushInterleaved|RecordBatchInterleaved|GoidLookup' -benchmem -benchtime 2x -count 1

## bench-columnar: the columnar engine's acceptance gates and benchmarks.
## Gates (DSSPY_COLUMNAR_GATE=1): Feed — the []Event ingress, a scatter onto
## a scratch column batch ahead of the columnar fold — must cost ≤1.5× the
## FeedColumns fold on a phase-structured 2M-event workload, and a full
## v3-log columnar replay must allocate ≤1/3 the bytes/event of the
## inflating load-and-feed path. The zero-alloc decode
## assertion (TestReadColumnsZeroAlloc) runs unconditionally in `make test`.
## So does the daemon ingress gate (TestIngressAllocGate): a 200k-event v3
## stream sent 10 times through a daemon-mode server with a discarding sink
## must allocate ≤2 B/event; it is repeated here with its figure logged.
## Benchmarks: columnar vs []Event replay and fold, the batch-run k-way merge
## at 1M events, and the zero-copy v3 read.
bench-columnar:
	DSSPY_COLUMNAR_GATE=1 $(GO) test . -run 'TestColumnarFoldThroughputGate|TestColumnarReplayAllocGate' -v -count 1
	$(GO) test ./internal/trace/ -run 'TestIngressAllocGate' -v -count 1
	$(GO) test . -run xxx -bench 'ColumnarReplay|EventReplay|ColumnarFold|EventFold' -benchmem -benchtime 2x -count 1
	$(GO) test ./internal/trace/ -run xxx -bench 'MergeColumns1M|ReadColumns' -benchmem -benchtime 2x -count 1

## bench-contend: the concurrency-aware analysis acceptance gates. The
## contention reducer must cost <5% of the end-to-end single-threaded
## pipeline and fold with zero allocations on single-thread instances, and
## the applied MPSC-ring recommendation must yield >=1.5x on the Contend
## app's queue hand-off region (it measures ~100x+: O(1) ring slots vs O(n)
## slice-FIFO front removals).
bench-contend:
	$(GO) test . -run 'TestContentionOverheadEndToEnd|TestContendQueueProbeSpeedup' -v -count 1
	$(GO) test ./internal/profile/ -run 'TestContentionSingleThreadZeroAlloc|TestContentionOverheadBudget' -v -count 1

## bench-sample: the adaptive-sampling acceptance gates. First the
## differential suite: on all 44 corpus workloads, sampled detections must
## either match full fidelity exactly or carry a positive error bound, with
## the gate's conservation identity (observed = folded + sampled out)
## holding per instance. Then the slowdown gate (DSSPY_SAMPLE_GATE=1): on
## the Table IV apps, the steady-state 1:64 sampled run must cost <1.5× the
## no-trace floor (drop-everything gate) geo-mean — i.e. sampling removes
## the removable tracing overhead; the dstruct proxy layer below the floor
## is not the sampler's to reclaim. Twin-relative ratios for the
## EXPERIMENTS.md table are logged alongside.
bench-sample:
	$(GO) test . -run 'TestSampleDifferentialCorpus' -count 1
	DSSPY_SAMPLE_GATE=1 $(GO) test . -run 'TestSampleSlowdownGate' -v -count 1

## bench-floor: the inlined-fast-path acceptance gates. First the inline
## guard: Handle.Drop and agg.fold must stay within the compiler's inlining
## budget — the floor bar depends on the credit test inlining into the
## container bodies. Then the floor gate (DSSPY_FLOOR_GATE=1): on the
## Table IV apps, the no-trace floor (drop-everything gate) must cost ≤1.4×
## the operation-faithful plain twins geo-mean, and the full-fidelity
## per-event Record p50 must stay under its absolute ceiling.
bench-floor:
	$(MAKE) inline-guard
	DSSPY_FLOOR_GATE=1 $(GO) test . -run 'TestFloorGate' -v -count 1

## inline-guard: asserts the two functions the sampled-out fast path rides —
## the handle's credit test and the aggregate fold — still inline, by reading
## the compiler's own -m escape/inline report. A refactor that pushes either
## past the budget turns every backed-off container access into a function
## call and silently re-raises the floor.
inline-guard:
	@out=$$($(GO) build -gcflags='-m' ./internal/trace/ 2>&1); \
	for fn in '(\*Handle).Drop' '(\*agg).fold'; do \
		if ! echo "$$out" | grep -q "can inline $$fn"; then \
			echo "inline-guard: $$fn no longer inlines (compiler -m report)"; exit 1; \
		fi; \
	done; echo "inline-guard: Handle.Drop and agg.fold inline OK"

## smoke-obs: boots the CLI with the live observability surface (the -listen
## side keeps serving while it waits for a producer) and checks that /healthz,
## /metrics and /statusz answer with the expected content.
smoke-obs:
	$(GO) build -o /tmp/dsspy-smoke ./cmd/dsspy
	@/tmp/dsspy-smoke -listen 127.0.0.1:17977 -conns 1 -http 127.0.0.1:16977 -quiet >/dev/null 2>&1 & \
	pid=$$!; sleep 1; ok=0; \
	{ curl -sf http://127.0.0.1:16977/healthz | grep -q ok && \
	  curl -sf http://127.0.0.1:16977/metrics | grep -q dsspy_trace_spans_total && \
	  curl -sf http://127.0.0.1:16977/metrics | grep -q dsspy_server_conns_active && \
	  curl -sf "http://127.0.0.1:16977/statusz?frag=1" | grep -q "Producer streams"; } || ok=1; \
	kill $$pid 2>/dev/null; rm -f /tmp/dsspy-smoke; \
	if [ $$ok -ne 0 ]; then echo "smoke-obs: endpoint check FAILED"; exit 1; fi; \
	echo "smoke-obs: /healthz /metrics /statusz OK"

## chaos: the fault-injection matrix under the race detector — flaky accepts,
## mid-frame link cuts, corrupted frames, stalled (slowloris) readers with
## quarantine, spill-disk failure, and daemon restart/resume. Every cell
## asserts the per-tenant conservation identity (received = delivered +
## sampled-out + dropped) and the producer-side delivery invariant.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/core/ ./internal/trace/ ./internal/faultnet/ -count 1

## fuzz-smoke: 10 seconds of fuzzing per decoder entry point (go's fuzzer
## accepts one -fuzz pattern per run, hence the sequence). Catches wire-format
## regressions that crash or mis-account the salvaging loaders. Each fuzzer
## replays its seeds first; FuzzRecoverSessionLog's include a registry frame
## naming instance ID 8·10⁸, which must be skipped, not restored.
## FuzzLoadReport covers the report snapshot loader, seeded with a version-1
## daemon checkpoint; its minimization is bounded to 50 runs per input, since
## shrinking a 31 KB snapshot by the default 60 s would use up the whole pass.
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzStreamReader$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzRecoverSessionLog$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzChecksummedFrameReader$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzColumnarDecoder$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzColumnarFoldDifferential$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzHelloHandshake$$' -fuzztime 10s
	$(GO) test ./internal/sample/ -run '^$$' -fuzz '^FuzzSampleController$$' -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzLoadReport$$' -fuzztime 10s -fuzzminimizetime 50x

## loc: the production Go line count — tracked .go files outside bench/,
## tests excluded. A simplification is measured by this figure going down.
loc:
	@n=$$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l); \
	echo "loc: $$n production Go lines (tracked .go files outside bench/, tests excluded)"

clean:
	$(GO) clean ./...
