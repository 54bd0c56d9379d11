// Command xfragserver serves a sharded store of XML documents as a
// JSON keyword-search API (see internal/httpapi for the endpoints).
//
// Usage:
//
//	xfragserver -addr :8080 doc1.xml doc2.xml
//	xfragserver -paper -addr :8080          # serve the Figure 1 document
//	xfragserver -data-dir /var/lib/xfrag -shards 8 -ingest-workers 4
//
// Endpoints:
//
//	GET  /healthz                 liveness (process is up)
//	GET  /readyz                  readiness (503 during WAL replay / queue saturation)
//	GET  /api/v1                  machine-readable route manifest (method, path, params)
//	GET  /api/v1/docs
//	POST /api/v1/docs             {"name": "...", "xml": "<...>"}
//	POST /api/v1/docs?async=1     202 + job ID; 429 when the ingest queue is full
//	GET  /api/v1/jobs/{id}        async ingest job status
//	GET  /api/v1/search?q=xquery+optimization&filter=size<=3&limit=10&offset=0&timeout=250ms
//	GET  /api/v1/explain?q=...&filter=...&strategy=push-down&trace=1
//	GET  /api/v1/metrics          (JSON; ?format=prom for Prometheus text)
//	POST /api/v1/watch            register a standing query → {"id","seq"} + snapshot
//	GET  /api/v1/watch            list standing queries
//	GET  /api/v1/watch/{id}       resumable SSE delta stream (Accept: text/event-stream) or long-poll (?since=seq&wait=20s; ?snapshot=1)
//	DEL  /api/v1/watch/{id}       cancel a standing query
//	GET  /api/v1/debug/slow       slow-query flight recorder (traced requests over -slow-query)
//	GET  /api/v1/debug/inflight   traces currently executing, with live durations
//	GET  /api/v1/debug/trace/{id} every recorded trace for one 32-hex-digit trace ID
//
// Standing queries (-max-subscriptions, -watch-buffer): POST
// /api/v1/watch compiles the query once and materializes its answer
// set; every subsequent ingest/replace/delete re-runs the algebra on
// only the affected document and streams precise add/update/remove
// deltas with per-subscription sequence numbers. Works on replicas
// too, fed by the replication stream.
//
// Tracing: -trace-sample records a fraction of requests as structured
// span trees in a bounded in-memory flight recorder; any single
// request can force a trace with ?trace=1 or a sampled W3C
// Traceparent header (the response echoes the ID in X-Xfrag-Trace-Id).
//
// Query endpoints evaluate under a per-request deadline
// (-query-timeout, shortenable per request with ?timeout=) and behind
// an admission controller (-max-concurrent / -admission-queue /
// -admission-wait) that sheds overload with 503 + Retry-After instead
// of queueing unboundedly.
//
// Every server runs on the sharded store (internal/store): ingest can
// be asynchronous behind a bounded queue (-ingest-workers,
// -ingest-queue), and search scatter-gathers across -shards shards
// under the request deadline. With -data-dir the store is durable:
// documents added at runtime are write-ahead-logged and survive
// restarts. Without it the store lives in memory only.
// SIGINT/SIGTERM shuts down gracefully: in-flight requests finish,
// the ingest queue drains, and the WAL (if any) is fsynced.
//
// With -pprof, the Go profiling endpoints mount under /debug/pprof/
// and expvar under /debug/vars.
//
// Replication (-role): a primary (-role=primary, requires -data-dir)
// additionally serves its per-shard WAL as a frame stream under
// /repl/v1/ for followers. A replica (-role=replica -primary-url=URL)
// keeps an in-memory mirror by pulling that stream: it serves the
// same read endpoints (plus X-Xfrag-Replica-Lag headers), answers
// writes with 403 pointing at the primary, reports 503 on /readyz
// when its lag exceeds -max-staleness, and exposes its per-shard lag
// at GET /api/v1/replication.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/docgen"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/xmltree"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	paper := flag.Bool("paper", false, "preload the paper's Figure 1 document")
	snap := flag.String("snapshot", "", "preload documents from a snapshot file (see internal/snapshot)")
	dataDir := flag.String("data-dir", "", "durable store directory (WAL + compaction snapshots); empty serves from memory only")
	shards := flag.Int("shards", 8, "document shards in the store")
	ingestWorkers := flag.Int("ingest-workers", 4, "background indexing workers for async ingest")
	queueSize := flag.Int("ingest-queue", 256, "async ingest queue bound; a full queue returns 429")
	bgReplay := flag.Bool("background-replay", false, "recover the WAL in the background and serve /readyz=503 until done (with -data-dir)")
	indexDir := flag.String("index-dir", "", "persistent global term index directory: restart reuses persisted postings instead of re-tokenizing, and searches prune documents by posting arithmetic (requires -data-dir)")
	indexFlushBytes := flag.Int64("index-flush-bytes", 0, "per-shard term-index memtable budget before a segment flush; 0 uses the built-in default (with -index-dir)")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "default per-request evaluation deadline for search/explain; 0 disables")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on the client ?timeout= parameter; 0 caps at -query-timeout")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrently evaluating queries before requests queue; 0 means 4×GOMAXPROCS, negative disables admission control")
	admissionQueue := flag.Int("admission-queue", 0, "requests allowed to wait for an evaluation slot; beyond it the server sheds 503 (0 means =max-concurrent)")
	admissionWait := flag.Duration("admission-wait", 100*time.Millisecond, "how long a queued request waits for a slot before shedding 503")
	role := flag.String("role", "standalone", "replication role: standalone, primary (serves /repl/v1/* WAL streams; needs -data-dir) or replica (pulls from -primary-url, read-only)")
	primaryURL := flag.String("primary-url", "", "primary's base URL, e.g. http://10.0.0.1:8080 (with -role=replica)")
	maxStaleness := flag.Duration("max-staleness", 30*time.Second, "replica staleness bound: /readyz reports 503 when replication lag exceeds it (with -role=replica)")
	replRetry := flag.Duration("repl-retry", 250*time.Millisecond, "back-off between replication stream reconnects (with -role=replica)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ and /debug/vars (profiling; keep off on untrusted networks)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests (0..1] traced into the flight recorder; 0 samples none (requests can still force a trace with ?trace=1 or a sampled Traceparent header)")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond, "traced requests at or over this duration land in the slow-query ring at /api/v1/debug/slow")
	traceBuffer := flag.Int("trace-buffer", 128, "flight recorder ring capacity (recent and slow rings each hold this many traces)")
	maxSubscriptions := flag.Int("max-subscriptions", 0, "cap on registered standing queries (/api/v1/watch); 0 means 64, negative disables the watch API")
	watchBuffer := flag.Int("watch-buffer", 0, "per-subscription event-ring capacity for resumable watch streams; 0 means 256")
	quiet := flag.Bool("quiet", false, "disable the structured request log on stderr")
	flag.Parse()
	if *traceSample < 0 || *traceSample > 1 {
		log.Fatalf("-trace-sample %v out of range (want 0..1)", *traceSample)
	}

	// Gather the preload set (CLI files, -paper, -snapshot) first; it
	// is fed to the store once it is open.
	var preload []*xmltree.Document
	if *paper {
		preload = append(preload, docgen.FigureOne())
	}
	if *snap != "" {
		docs, err := snapshot.LoadFile(*snap)
		if err != nil {
			log.Fatalf("snapshot %s: %v", *snap, err)
		}
		preload = append(preload, docs...)
	}
	for _, path := range flag.Args() {
		doc, err := xmltree.ParseFile(path)
		if err != nil {
			log.Fatalf("load %s: %v", path, err)
		}
		preload = append(preload, doc)
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	// One flight recorder for the whole process: the HTTP layer, the
	// store's async ingest workers, and (on replicas) the replication
	// follower all record into it, so /api/v1/debug/* sees everything.
	recorder := obs.NewRecorder(*traceBuffer, *slowQuery)

	cfg := httpapi.Config{
		Logger:             logger,
		QueryTimeout:       *queryTimeout,
		MaxTimeout:         *maxTimeout,
		MaxConcurrent:      *maxConcurrent,
		MaxQueue:           *admissionQueue,
		QueueWait:          *admissionWait,
		TraceSample:        *traceSample,
		SlowQueryThreshold: *slowQuery,
		TraceBuffer:        *traceBuffer,
		Recorder:           recorder,
		MaxSubscriptions:   *maxSubscriptions,
		WatchBuffer:        *watchBuffer,
	}

	// The signal context is created before the store so the
	// replication follower (which needs a cancellation context from
	// birth) and the HTTP server share one shutdown trigger.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *role {
	case "standalone", "primary", "replica":
	default:
		log.Fatalf("unknown -role %q (want standalone, primary or replica)", *role)
	}
	if *role == "primary" && *dataDir == "" {
		log.Fatal("-role=primary requires -data-dir (replication ships the WAL)")
	}
	if *role == "replica" {
		if *primaryURL == "" {
			log.Fatal("-role=replica requires -primary-url")
		}
		if *dataDir != "" {
			log.Fatal("-role=replica is incompatible with -data-dir: a replica mirrors the primary's log in memory and resyncs on restart")
		}
	}
	if *indexDir != "" && *dataDir == "" {
		log.Fatal("-index-dir requires -data-dir (the term index is a cache of the WAL)")
	}
	if *bgReplay && *dataDir == "" {
		log.Fatal("-background-replay requires -data-dir (there is no WAL to recover)")
	}

	var (
		st       *store.Store
		follower *repl.Follower
		err      error
	)
	if *role != "replica" {
		// An empty -data-dir opens an in-memory store.
		st, err = store.Open(store.Options{
			Dir:              *dataDir,
			Shards:           *shards,
			IngestWorkers:    *ingestWorkers,
			QueueSize:        *queueSize,
			BackgroundReplay: *bgReplay,
			IndexDir:         *indexDir,
			IndexFlushBytes:  *indexFlushBytes,
		})
		if err != nil {
			log.Fatalf("store %s: %v", *dataDir, err)
		}
		if *indexDir != "" {
			fmt.Printf("xfragserver: persistent term index in %s (%d document(s) covered)\n", *indexDir, st.TermIndex().Docs())
		}
		if *bgReplay {
			fmt.Printf("xfragserver: recovering WAL in background — /readyz reports readiness — listening on %s\n", *addr)
		} else {
			for _, d := range preload {
				// Documents recovered from the WAL win over re-supplied
				// preload files of the same name.
				if st.Engine(d.Name()) != nil {
					continue
				}
				if err := st.Add(d); err != nil {
					log.Fatalf("add %s: %v", d.Name(), err)
				}
			}
			where := "in memory"
			if *dataDir != "" {
				where = "data in " + *dataDir
			}
			stats := st.Stats()
			fmt.Printf("xfragserver: %d document(s), %d nodes, %d postings — %d shard(s), %s — listening on %s\n",
				stats.Documents, stats.Nodes, stats.Postings, st.Shards(), where, *addr)
		}
		if *role == "primary" {
			cfg.Replication = &httpapi.ReplicationConfig{Role: httpapi.RolePrimary}
			fmt.Printf("xfragserver: primary — followers stream from /repl/v1/ — listening on %s\n", *addr)
		}
	} else {
		// MemoryIndex: the replica builds its term index from the
		// replicated WAL stream, so posting-first pruning serves the
		// same answers as the primary.
		st, err = store.Open(store.Options{
			Shards:      *shards,
			MemoryIndex: true,
		})
		if err != nil {
			log.Fatalf("replica store: %v", err)
		}
		follower = &repl.Follower{
			PrimaryURL:    *primaryURL,
			Store:         st,
			Metrics:       st.Metrics(),
			RetryInterval: *replRetry,
			Logger:        logger,
			Recorder:      recorder,
		}
		if err := follower.Start(ctx); err != nil {
			log.Fatalf("replication: %v", err)
		}
		cfg.Replication = &httpapi.ReplicationConfig{
			Role:         httpapi.RoleReplica,
			PrimaryURL:   *primaryURL,
			Follower:     follower,
			MaxStaleness: *maxStaleness,
		}
		fmt.Printf("xfragserver: replica of %s (max staleness %s) — listening on %s\n", *primaryURL, *maxStaleness, *addr)
	}
	var handler http.Handler = httpapi.NewStoreWithConfig(st, cfg)

	if *pprofOn {
		// Mount the API beside the debug endpoints on a wrapper mux so
		// the profiling handlers stay outside the request middleware.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		handler = mux
		fmt.Println("xfragserver: profiling enabled at /debug/pprof/ and /debug/vars")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Derive request contexts from the signal context: Shutdown
		// alone only waits for in-flight requests, and the replication
		// streams are in-flight for minutes at a time — without this a
		// SIGTERM'd primary keeps heartbeating its replicas (holding
		// their lag near zero) for the whole drain window.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	// Graceful shutdown on SIGINT/SIGTERM: in-flight searches finish,
	// the listener closes, then the store drains its ingest queue and
	// fsyncs the WAL so every acknowledged mutation is durable.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		fmt.Println("xfragserver: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatal(err)
		}
		if follower != nil {
			follower.Wait()
			fmt.Println("xfragserver: replication streams stopped")
		}
		if err := st.Close(shutCtx); err != nil {
			log.Fatalf("store close: %v", err)
		}
		fmt.Println("xfragserver: ingest queue drained, store closed (WAL synced if durable)")
	}
}
