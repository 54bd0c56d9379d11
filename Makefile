GO ?= go

.PHONY: all build test check race cover bench bench-build fuzz fuzz-smoke repl-integration index-integration watch-integration experiments tools clean

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
# controller's shed path must hold under the race detector — every
# allocation pin (each test with "Alloc" in its name: exact allocs per
# operation for the kernel, enumerator, tracing, planner and standing
# delta, and allocations that do not grow with answers or postings,
# the search tail's host-independent proxy) again without -race, and
# the cancellation/trace overhead benchmarks, which keep the cost of
# threading a context (and a span) through the join loops visible on
# every run. Timing is gated only by benchmark/run.sh.
check: bench-build
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -run Overload ./internal/httpapi/
	$(GO) test -run 'Alloc' -count=1 ./...
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
