GO ?= go

.PHONY: all build test check race cover bench bench-build bench-json bench-compare fuzz fuzz-smoke repl-integration index-integration watch-integration experiments tools clean

all: build check

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# check is the full gate: the benchmark module's build, vet plus the
# whole suite under the race detector (the observability layer counts
# from worker goroutines, so race coverage is part of correctness
# here), then the overload tests again explicitly — the admission
# controller's shed path must hold under the race detector — the
# zero-alloc pin for unsampled tracing, and the cancellation/trace
# overhead benchmarks, which keep the cost of threading a context (and
# a span) through the join loops visible on every run.
check: bench-build
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -run Overload ./internal/httpapi/
	$(GO) test -run TestTraceOverheadZeroAlloc -count=1 ./internal/query/
	$(GO) test -run xxx -bench 'BenchmarkCancellationOverhead|BenchmarkTraceOverhead' -benchtime 200ms ./internal/query/

# bench-build compiles and vets benchmark/ with the environment of
# benchmark/run.sh. It is a module of its own that imports
# repro/internal/..., so `go build ./...` and `go test ./...` do not
# notice when a rename in internal/* stops it compiling; this does.
bench-build:
	cd benchmark && GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local $(GO) build -o /dev/null .
	cd benchmark && GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local $(GO) vet .

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs the kernel benchmarks (plus the join-heaviest
# end-to-end workload, BenchmarkRFSweep, the ranker's full and top-k
# cuts, and the trace-overhead pair, which gates the cost of the
# tracing plumbing on the push-down hot path) and emits BENCH_core.json (ns/op, allocs/op, B/op, joins/op)
# via cmd/benchjson. BENCHTIME trades precision for CI wall clock; the
# RF sweep is pinned to a single iteration — one op is millions of
# joins, and allocs/op (the hard-gated number) is deterministic at any
# iteration count.
BENCHTIME ?= 1s
bench-json:
	( $(GO) test -run xxx -bench . -benchtime $(BENCHTIME) ./internal/core/ && \
	  $(GO) test -run xxx -bench BenchmarkTraceOverhead -benchtime $(BENCHTIME) ./internal/query/ && \
	  $(GO) test -run xxx -bench BenchmarkRank -benchtime $(BENCHTIME) ./internal/ranking/ && \
	  $(GO) test -run xxx -bench BenchmarkPostingSelection -benchtime $(BENCHTIME) ./internal/gindex/ && \
	  $(GO) test -run xxx -bench BenchmarkStandingDelta -benchtime $(BENCHTIME) ./internal/standing/ && \
	  $(GO) test -run xxx -bench BenchmarkPlanChoose -benchtime $(BENCHTIME) ./internal/engine/ && \
	  $(GO) test -run xxx -bench . -benchtime 1x ./internal/bench/ ) \
		| $(GO) run ./cmd/benchjson parse > BENCH_core.json

# bench-compare gates the fresh BENCH_core.json against the committed
# baseline: BENCH_baseline.txt is the raw output of the one bench-json
# run (one machine) that BENCH_core.json was parsed from — regenerate
# the two together. Only allocs/op is gated hard (it is
# deterministic); ns/op is gated at a coarse threshold that catches
# order-of-magnitude regressions without tripping on shared-runner
# noise.
bench-compare:
	$(GO) run ./cmd/benchjson compare BENCH_baseline.txt BENCH_core.json \
		-gate-allocs 10 -gate-ns 300

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/xmltree/
	$(GO) test -fuzz=FuzzParseFilter -fuzztime=30s ./internal/filter/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzDecodeSegment -fuzztime=30s ./internal/gindex/
	$(GO) test -fuzz=FuzzQueryAuto -fuzztime=30s ./internal/query/

# fuzz-smoke is the CI-sized run of the crash-path decoders: the WAL
# frame decoder and the term-index segment decoder both parse bytes
# straight off disk after a crash (frames also straight off the network
# on a replica), so "error, never panic" is load-bearing for both.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/store/
	$(GO) test -fuzz=FuzzDecodeSegment -fuzztime=10s ./internal/gindex/

# repl-integration runs the replication lifecycle and replica-serving
# tests under the race detector: catch-up, restart resume, snapshot
# bootstrap, epoch adoption, byte-identical replica answers, write
# rejection, staleness gating, and the traced end-to-end query (one
# trace ID stitched across primary, follower stream, and replica).
repl-integration:
	$(GO) test -race -count=1 ./internal/repl/
	$(GO) test -race -count=1 -run 'Replica|Replication|Trace' ./internal/httpapi/
	$(GO) test -race -count=1 -run 'Repl' ./internal/store/

# index-integration runs the persistent term-index lifecycle tests
# under the race detector: segment codec and shard semantics, cold-start
# posting reuse, crash between flush and merge, corrupt-segment
# wipe-and-rebuild, posting-first answers matching the tree path, and
# replica index maintenance from the replication stream.
index-integration:
	$(GO) test -race -count=1 ./internal/gindex/
	$(GO) test -race -count=1 -run 'Index|ColdStart|PostingFirst' ./internal/store/

# watch-integration runs the standing-query subsystem under the race
# detector: subscription lifecycle, delta/reset semantics, the
# byte-identity soak (materialized view vs from-scratch evaluation),
# slow-consumer backpressure over SSE, the search fast path served
# from materialized views, and the watch-on-replica path fed by the
# replication stream.
watch-integration:
	$(GO) test -race -count=1 ./internal/standing/
	$(GO) test -race -count=1 -run 'Watch|Manifest|FastPath' ./internal/httpapi/
	$(GO) test -race -count=1 -run 'FacadeWatch' .

experiments:
	$(GO) run ./cmd/xfragbench -exp all

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin cover.out
