// Package httpapi exposes a document store (internal/store) as a JSON
// search service — the downstream-facing surface of the library: add
// documents, run keyword/filter queries, inspect plans. Stdlib
// net/http only.
//
// The versioned surface lives under /api/v1 and is the one to build
// against: uniform error envelope {"error":{"code","message",
// "request_id"}}, limit/offset pagination on /api/v1/search, and
// per-request evaluation deadlines (?timeout=, capped by the server).
// Query endpoints sit behind an admission
// controller (bounded concurrency plus a short wait queue) that sheds
// overload with 503 + Retry-After instead of queueing forever.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/standing"
	"repro/internal/store"
)

// maxSearchLimit caps the limit query parameter of the search
// endpoints: larger values get a 400 instead of an unbounded response
// body.
const maxSearchLimit = 1000

// maxSearchWindow caps offset+limit: every shard keeps that many hits
// in its top-k, so a deeper page gets a 400 instead of a top-k sized
// by the client.
const maxSearchWindow = 10000

// Config tunes the server's robustness knobs. The zero value is
// usable: no default evaluation deadline, admission sized from
// GOMAXPROCS, 16 MiB body cap.
type Config struct {
	// Logger receives the structured access log; nil disables logging
	// (request IDs, panic recovery and metrics stay active).
	Logger *slog.Logger
	// MaxBody bounds document-upload bodies in bytes (default 16 MiB).
	MaxBody int64
	// QueryTimeout is the default per-request evaluation deadline for
	// search/explain; 0 means no default deadline.
	QueryTimeout time.Duration
	// MaxTimeout caps the client-supplied ?timeout= parameter. 0 means
	// "cap at QueryTimeout when one is set, otherwise uncapped".
	MaxTimeout time.Duration
	// MaxConcurrent bounds concurrently evaluating queries (the
	// admission semaphore). 0 means 4×GOMAXPROCS; negative disables
	// admission control entirely.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for an evaluation
	// slot beyond MaxConcurrent (default MaxConcurrent). Requests past
	// the queue shed immediately with 503.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before shedding (default 100ms).
	QueueWait time.Duration
	// Replication attaches a primary or replica role (see
	// ReplicationConfig); nil runs standalone.
	Replication *ReplicationConfig
	// TraceSample is the fraction of requests (0..1] traced into the
	// flight recorder by the deterministic sampler. 0 disables
	// sampling; a request can still force a trace with ?trace=1 or an
	// incoming sampled Traceparent header.
	TraceSample float64
	// SlowQueryThreshold is the duration at or over which a finished
	// trace also lands in the slow-query ring served by
	// /api/v1/debug/slow (default obs.DefaultSlowThreshold).
	SlowQueryThreshold time.Duration
	// TraceBuffer is the capacity of each flight-recorder ring
	// (default 128 traces).
	TraceBuffer int
	// Recorder, when set, is used instead of constructing one — lets a
	// process share one flight recorder between the HTTP layer and the
	// replication follower so /api/v1/debug/* shows both.
	Recorder *obs.Recorder
	// MaxSubscriptions caps concurrently registered standing queries
	// (watch subscriptions). 0 means 64; negative disables the watch
	// API entirely.
	MaxSubscriptions int
	// WatchBuffer is the per-subscription event-ring capacity: how
	// many events a disconnected watcher may miss and still resume via
	// ?since= without a full re-sync (default 256).
	WatchBuffer int
}

func (c *Config) setDefaults() {
	if c.MaxBody <= 0 {
		c.MaxBody = 16 << 20
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = c.QueryTimeout
	}
}

// Server routes HTTP requests to a sharded document store: durable
// with a data directory, in-memory without one.
type Server struct {
	st      *store.Store
	cfg     Config
	adm     *admission // nil when admission control is disabled
	rec     *obs.Recorder
	reg     *standing.Registry // nil when the watch API is disabled
	routes  []routeDef
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in Middleware
	// sampleEvery/sampleSeq implement the deterministic request
	// sampler: every sampleEvery-th request is traced (0 = never).
	sampleEvery uint64
	sampleSeq   atomic.Uint64
}

// NewStoreWithConfig serves a store under cfg. Search runs under the
// request context (deadline-aware scatter-gather); POST
// /api/v1/docs?async=1 enqueues into the ingest pipeline and GET
// /api/v1/jobs/{id} polls job status. HTTP metrics land in the
// store's registry.
func NewStoreWithConfig(st *store.Store, cfg Config) *Server {
	s := &Server{st: st, cfg: cfg}
	s.cfg.setDefaults()
	m := st.Metrics()
	if s.cfg.MaxConcurrent > 0 {
		s.adm = newAdmission(s.cfg.MaxConcurrent, s.cfg.MaxQueue, s.cfg.QueueWait)
	}
	s.rec = s.cfg.Recorder
	if s.rec == nil {
		s.rec = obs.NewRecorder(s.cfg.TraceBuffer, s.cfg.SlowQueryThreshold)
	}
	if s.cfg.TraceSample > 0 {
		s.sampleEvery = uint64(math.Round(1 / min(s.cfg.TraceSample, 1)))
		if s.sampleEvery == 0 {
			s.sampleEvery = 1
		}
	}
	// The store's async ingest workers continue request traces; they
	// need the recorder to land the continuation in.
	st.SetTraceRecorder(s.rec)
	// Constant 1-valued gauge carrying version/revision labels — the
	// Prometheus build-info convention.
	m.Gauge(obs.BuildInfoSeries()).Set(1)
	if s.cfg.MaxSubscriptions >= 0 {
		// The standing-query registry taps the corpus change feed —
		// the same hook primary ingest, replica WAL apply and snapshot
		// bootstrap all flow through — so watch subscriptions work
		// identically on a primary, a replica, and an in-memory store.
		s.reg = standing.NewRegistry(st, standing.Options{
			MaxSubscriptions: s.cfg.MaxSubscriptions,
			Buffer:           s.cfg.WatchBuffer,
			Metrics:          m,
		})
		st.SetChangeListener(s.reg.Notify)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.addRoute("GET", "/docs", "List indexed documents.", nil, s.handleListDocs)
	s.addRoute("POST", "/docs", "Add (or asynchronously enqueue) an XML document.", []routeParam{
		bp("name", "document name"), bp("xml", "document body"),
		qp("async", "1 enqueues into the ingest pipeline, answering 202 with a job ID"),
	}, s.handleAddDoc)
	s.addRoute("DELETE", "/docs/{name}", "Remove one document.", []routeParam{
		pp("name", "document name"),
	}, s.handleRemoveDoc)
	s.addRoute("GET", "/jobs/{id}", "Status of one async ingest job.", []routeParam{
		pp("id", "job ID from POST /docs?async=1"),
	}, s.handleJob)
	s.addRoute("GET", "/search", "Keyword/filter search with ranked, paginated hits.", []routeParam{
		qp("q", "keyword query (required)"), qp("filter", "filter spec, e.g. size<=3,height<=2"),
		qp("strategy", "auto|brute-force|naive|set-reduction|push-down"),
		qp("limit", "page size (default 20, max 1000)"), qp("offset", "pagination offset"),
		qp("timeout", "per-request evaluation deadline, e.g. 250ms"),
		qp("trace", "1 forces a flight-recorder trace"),
	}, s.handleSearch)
	s.addRoute("GET", "/explain", "Logical/physical plan for a query; trace=1 also executes it with spans.", []routeParam{
		qp("q", "keyword query (required)"), qp("filter", "filter spec"),
		qp("strategy", "evaluation strategy"), qp("trace", "1 executes the query and returns span trees"),
	}, s.handleExplain)
	s.addRoute("GET", "/stats", "Corpus-wide document/index sizes.", nil, s.handleStats)
	s.addRoute("GET", "/metrics", "Metrics registry (JSON; format=prom for Prometheus exposition).", []routeParam{
		qp("format", "prom selects the Prometheus text format"),
	}, s.handleMetrics)
	s.addRoute("GET", "/debug/slow", "Recent slow-query traces from the flight recorder.", nil, s.handleDebugSlow)
	s.addRoute("GET", "/debug/inflight", "Currently executing traced requests.", nil, s.handleDebugInflight)
	s.addRoute("GET", "/debug/trace/{id}", "One recorded trace by ID.", []routeParam{
		pp("id", "trace ID"),
	}, s.handleDebugTrace)
	if s.reg != nil {
		s.addRoute("POST", "/watch", "Register a standing query; answers {id, seq} plus the materialized snapshot.", []routeParam{
			bp("query", "keyword query (required)"), bp("filter", "filter spec"), bp("strategy", "evaluation strategy"),
		}, s.handleWatchCreate)
		s.addRoute("GET", "/watch", "List live standing-query subscriptions.", nil, s.handleWatchList)
		s.addRoute("GET", "/watch/{id}", "Stream a subscription: SSE when Accept: text/event-stream, else long-poll JSON.", []routeParam{
			pp("id", "subscription ID"),
			qp("since", "resume after this sequence number (default 0)"),
			qp("wait", "long-poll hold time, e.g. 20s (long-poll only)"),
			qp("snapshot", "1 returns the materialized answer set instead of events (long-poll only)"),
		}, s.handleWatchGet)
		s.addRoute("DELETE", "/watch/{id}", "Cancel a subscription.", []routeParam{
			pp("id", "subscription ID"),
		}, s.handleWatchDelete)
	}
	s.initReplication()
	s.mountRoutes()
	var inner http.Handler = s.mux
	if s.role() == RoleReplica {
		// Stamp lag headers on every replica response, before the
		// handler runs so they survive handlers that write early.
		next := inner
		inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.setLagHeaders(w.Header())
			next.ServeHTTP(w, r)
		})
	}
	// Tracing sits inside Middleware: the request ID is already stamped
	// on the response when the sampler runs, so a sampled root span can
	// carry it.
	s.handler = Middleware(s.traceMiddleware(inner), s.cfg.Logger, m)
	return s
}

// Recorder returns the server's flight recorder (never nil after
// construction): the store the debug endpoints read from.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Watch returns the standing-query registry (nil when the watch API
// is disabled via a negative MaxSubscriptions).
func (s *Server) Watch() *standing.Registry { return s.reg }

// Close releases the server's background resources: the standing-query
// delta worker stops and every live subscription is canceled. The
// backing store is the caller's to close.
func (s *Server) Close() {
	if s.reg != nil {
		s.reg.Close()
	}
}

// Store returns the backing store.
func (s *Server) Store() *store.Store { return s.st }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// handleHealth is pure liveness: the process is up and serving. Load
// balancers should route on /readyz instead.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"documents":          s.st.Len(),
		"ingest_queue_depth": s.st.QueueDepth(),
		"shards":             s.st.Shards(),
	})
}

// handleReady is readiness: 503 while the node should not receive
// traffic — during WAL replay, after a failed background replay, or
// while the ingest queue is saturated. A replica is ready while its
// replication lag stays within the staleness bound.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.role() == RoleReplica {
		// A replica's readiness is its freshness: a node lagging past
		// the staleness bound (or not yet connected to its primary)
		// should not receive read traffic.
		lag, ok := s.replicaReady()
		body := map[string]any{
			"ready":                 ok,
			"role":                  RoleReplica.String(),
			"max_staleness_seconds": s.cfg.Replication.maxStaleness().Seconds(),
			"lag":                   lag,
		}
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
			body["reason"] = errStaleReplica.Error()
		}
		writeJSON(w, status, body)
		return
	}
	rd := s.st.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

// DocInfo describes one indexed document.
type DocInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Terms int    `json:"terms"`
}

func (s *Server) handleListDocs(w http.ResponseWriter, _ *http.Request) {
	// docs starts empty, not nil: an empty server encodes "documents": [].
	docs := []DocInfo{}
	for _, name := range s.st.Names() {
		eng := s.st.Engine(name)
		if eng == nil { // removed between listing and lookup
			continue
		}
		docs = append(docs, DocInfo{
			Name:  name,
			Nodes: eng.Document().Len(),
			Terms: eng.Index().Size(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": docs})
}

// AddDocRequest is the body of POST /api/v1/docs.
type AddDocRequest struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

func (s *Server) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	var req AddDocRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(&req); err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if req.Name == "" || req.XML == "" {
		s.error(w, http.StatusBadRequest, "bad_request", errors.New("need name and xml"))
		return
	}
	if r.URL.Query().Get("async") == "1" {
		// A traced submit hands its trace ID to the ingest pipeline:
		// the worker records the parse/index as a continuation trace
		// under the same ID (see store.EnqueueTraced).
		var tid obs.TraceID
		if tr := obs.TraceFromContext(r.Context()); tr != nil {
			tid = tr.ID()
		}
		id, err := s.st.EnqueueTraced(req.Name, req.XML, tid)
		switch {
		case errors.Is(err, store.ErrQueueFull):
			// Backpressure, not failure: the client should retry later.
			w.Header().Set("Retry-After", "1")
			s.error(w, http.StatusTooManyRequests, "queue_full", err)
			return
		case errors.Is(err, store.ErrReplaying):
			w.Header().Set("Retry-After", "1")
			s.error(w, http.StatusServiceUnavailable, "not_ready", err)
			return
		case err != nil:
			s.error(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"job": id, "document": req.Name})
		return
	}
	switch err := s.st.AddXML(req.Name, req.XML); {
	case errors.Is(err, store.ErrReplaying):
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusServiceUnavailable, "not_ready", err)
		return
	case err != nil:
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"added": req.Name})
}

// handleJob serves GET /api/v1/jobs/{id}: the status of one async
// ingest job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.st.Job(id)
	if !ok {
		s.error(w, http.StatusNotFound, "not_found", fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleRemoveDoc(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	name := r.PathValue("name")
	if !s.st.Remove(name) {
		s.error(w, http.StatusNotFound, "not_found", fmt.Errorf("no document %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// SearchHit is one result of GET /api/v1/search.
type SearchHit struct {
	Document string  `json:"document"`
	Nodes    []int32 `json:"nodes"`
	Root     int32   `json:"root"`
	Size     int     `json:"size"`
	Score    float64 `json:"score"`
	// Snippet is the truncated text of the fragment's nodes in
	// document order.
	Snippet string `json:"snippet,omitempty"`
}

// SearchResponse is the body of GET /api/v1/search.
type SearchResponse struct {
	Query    string      `json:"query"`
	Filter   string      `json:"filter,omitempty"`
	Strategy string      `json:"strategy"`
	Hits     []SearchHit `json:"hits"`
	// Total counts every hit across the store; Returned counts
	// the hits actually present in Hits after limit/offset.
	Total    int `json:"total"`
	Returned int `json:"returned"`
	// Limit and Offset echo the effective pagination window.
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
	// Errors maps document name → its evaluation error. A deadline
	// that expires mid-search degrades to partial results: finished
	// documents keep their hits, unfinished ones appear here.
	Errors map[string]string `json:"errors,omitempty"`
}

// admit claims an evaluation slot for a query endpoint, writing the
// 503 + Retry-After shed response itself when the server is
// overloaded. Callers must release() when admit returns true.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.adm == nil {
		return true
	}
	waitStart := time.Now()
	err := s.adm.acquire(r.Context())
	switch {
	case err == nil:
		// Queue wait is the admission stage: how long the request sat
		// waiting for an evaluation slot before any work started.
		wait := time.Since(waitStart)
		s.st.Metrics().ObserveStage(obs.StageAdmission, wait)
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			sp.SetAttr("admission_wait", wait.String())
		}
		s.st.Metrics().Gauge(obs.MInflightQueries).Set(int64(s.adm.inflight()))
		return true
	case errors.Is(err, errShed):
		s.st.Metrics().Counter(obs.MQueriesShed).Add(1)
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusServiceUnavailable, "overloaded", errors.New("server overloaded; retry later"))
	default:
		// The client went away while queued; nothing useful to serve.
		s.error(w, http.StatusServiceUnavailable, "canceled", err)
	}
	return false
}

func (s *Server) release() {
	if s.adm != nil {
		s.adm.release()
		s.st.Metrics().Gauge(obs.MInflightQueries).Set(int64(s.adm.inflight()))
	}
}

// queryDeadline derives the evaluation context for a query endpoint:
// the server's default QueryTimeout, overridden by ?timeout= (a Go
// duration such as 250ms), which MaxTimeout caps — clients may
// shorten the deadline freely but never extend it past the server's
// bound.
func (s *Server) queryDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.QueryTimeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		td, err := time.ParseDuration(t)
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive duration like 250ms)", t)
		}
		d = td
		if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	keywords := qs.Get("q")
	if keywords == "" {
		s.error(w, http.StatusBadRequest, "bad_request", errors.New("missing q parameter"))
		return
	}
	filterSpec := qs.Get("filter")
	opts, stratName, err := parseStrategy(qs.Get("strategy"))
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	limit := 20
	if l := qs.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 {
			s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad limit %q", l))
			return
		}
		if n > maxSearchLimit {
			s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("limit %d exceeds maximum %d", n, maxSearchLimit))
			return
		}
		limit = n
	}
	offset := 0
	if o := qs.Get("offset"); o != "" {
		n, err := strconv.Atoi(o)
		if err != nil || n < 0 {
			s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad offset %q", o))
			return
		}
		offset = n
	}
	// Compared without overflow: offset can be anything up to MaxInt.
	if offset > maxSearchWindow-limit {
		s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("offset %d + limit %d exceeds maximum window %d", offset, limit, maxSearchWindow))
		return
	}
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	// Hits starts empty, not nil: a page past the end encodes "hits": [].
	resp := SearchResponse{Query: keywords, Filter: filterSpec, Strategy: stratName, Limit: limit, Offset: offset, Hits: []SearchHit{}}
	// Materialized-view fast path: a search matching a registered
	// standing query is served from its answer set — O(page), no
	// evaluation, no admission slot — and stays warm across ingest
	// because the delta worker keeps the view current per affected
	// document. Sampled/traced requests skip it: their trace wants
	// the spans of a real evaluation.
	if s.reg != nil && obs.TraceFromContext(r.Context()) == nil {
		if sub, ok := s.reg.Lookup(q, opts); ok {
			s.st.Metrics().Counter(obs.MStandingCacheHits).Add(1)
			vhits := sub.Snapshot()
			resp.Total = len(vhits)
			if offset < len(vhits) {
				vhits = vhits[offset:]
			} else {
				vhits = nil
			}
			for _, h := range vhits {
				if len(resp.Hits) == limit {
					break
				}
				resp.Hits = append(resp.Hits, SearchHit(h))
			}
			resp.Returned = len(resp.Hits)
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	ctx, cancel, err := s.queryDeadline(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	defer cancel()
	if !s.admit(w, r) {
		return
	}
	defer s.release()

	// Deadline-aware scatter-gather with a global top-k merge: the
	// context carries the client disconnect and the evaluation deadline
	// down to the per-shard join loops.
	res, err := s.st.Run(ctx, q, opts, offset+limit)
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	hits := res.Hits
	resp.Total = res.Total
	if offset < len(hits) {
		hits = hits[offset:]
	} else {
		hits = nil
	}
	for _, h := range hits {
		if len(resp.Hits) == limit {
			break
		}
		resp.Hits = append(resp.Hits, toHit(h))
	}
	resp.Returned = len(resp.Hits)
	for name, e := range res.Errors {
		if resp.Errors == nil {
			resp.Errors = map[string]string{}
		}
		resp.Errors[name] = e.Error()
	}
	if tr := obs.TraceFromContext(r.Context()); tr != nil {
		// Summarize the request on its flight-recorder record so a slow
		// entry is diagnosable without replaying the query.
		tr.SetExtra("query", keywords)
		if filterSpec != "" {
			tr.SetExtra("filter", filterSpec)
		}
		tr.SetExtra("strategy", stratName)
		tr.SetExtra("total", resp.Total)
		tr.SetExtra("returned", resp.Returned)
	}
	writeJSON(w, http.StatusOK, resp)
}

func toHit(h collection.Hit) SearchHit {
	ids := h.Fragment.IDs()
	nodes := make([]int32, len(ids))
	for i, id := range ids {
		nodes[i] = int32(id)
	}
	return SearchHit{
		Document: h.Document,
		Nodes:    nodes,
		Root:     int32(h.Fragment.Root()),
		Size:     h.Fragment.Size(),
		Score:    h.Score,
		// One snippet implementation for search hits and watch
		// deltas, so a fragment presents identically on both
		// surfaces (and the view byte-identity holds).
		Snippet: collection.Snippet(h.Fragment),
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	keywords := qs.Get("q")
	if keywords == "" {
		s.error(w, http.StatusBadRequest, "bad_request", errors.New("missing q parameter"))
		return
	}
	q, err := query.Parse(keywords, qs.Get("filter"))
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	// Under auto the static plan shown is push-down's; the per-shard
	// plans below and trace=1 show what evaluation actually chooses.
	strat, auto, err := cost.ParseStrategy(qs.Get("strategy"))
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	body := map[string]any{
		"query":    q.String(),
		"logical":  q.LogicalPlan().Render(),
		"physical": q.PhysicalPlan(strat).Render(),
		"strategy": strat.String(),
	}
	// The adaptive planner's view: the compiled plan each shard's plan
	// cache would serve this query on the auto path, with the
	// statistics it was derived from. Served through the real caches,
	// so outcome shows hit/miss/replan as a search would.
	plans := s.st.ExplainPlans(q, cost.DefaultChooser())
	shardPlans := make([]map[string]any, 0, len(plans))
	for _, sp := range plans {
		entry := map[string]any{
			"shard":   sp.Shard,
			"outcome": sp.Outcome.String(),
		}
		if p := sp.Plan; p != nil {
			strats := make([]string, len(p.SetStrategies))
			for i, ss := range p.SetStrategies {
				strats[i] = ss.String()
			}
			entry["strategy"] = p.Strategy.String()
			entry["set_strategies"] = strats
			entry["rf_estimates"] = p.RFs
			entry["expected_seeds"] = p.ExpectedSeeds
			entry["join_order"] = p.Order
			entry["stats_epoch"] = p.Epoch
			entry["docs"] = p.Docs
			entry["physical"] = q.PhysicalPlanFor(p.Strategy, p).Render()
		}
		shardPlans = append(shardPlans, entry)
	}
	body["plan"] = shardPlans
	if qs.Get("trace") == "1" {
		// Run the query for real with span recording: the plan above is
		// the static picture, the trace is what actually executed (per
		// document), with cardinalities and durations. The real run
		// counts against the admission semaphore and the evaluation
		// deadline like any search.
		opts := query.Options{Strategy: strat, Auto: auto, Trace: true}
		ctx, cancel, err := s.queryDeadline(r)
		if err != nil {
			s.error(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		defer cancel()
		if !s.admit(w, r) {
			return
		}
		defer s.release()
		res, err := s.st.Run(ctx, q, opts, 0)
		if err != nil {
			s.error(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		traces := make(map[string]any, len(res.Traces))
		rendered := make(map[string]string, len(res.Traces))
		for name, sp := range res.Traces {
			traces[name] = sp
			rendered[name] = sp.Render()
		}
		body["traces"] = traces
		body["rendered"] = rendered
		body["stats"] = res.PerDocument
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the backing registries: JSON by default,
// Prometheus text exposition with ?format=prom. The store registry
// (HTTP, ingest/WAL/search metrics, incl. the queue-depth gauge and
// ingest-latency histogram) sits at the top level, each shard's
// engine registry (query, join and enumeration series) as a "shards"
// array in JSON and under an xfrag_shard<N> prefix in Prometheus
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.st.Metrics().WritePrometheus(w, "xfrag")
		for i, m := range s.st.ShardMetrics() {
			m.WritePrometheus(w, fmt.Sprintf("xfrag_shard%d", i))
		}
		return
	}
	body := s.st.Metrics().Snapshot()
	body["build_info"] = obs.BuildInfo()
	shards := make([]map[string]any, 0, s.st.Shards())
	for _, m := range s.st.ShardMetrics() {
		shards = append(shards, m.Snapshot())
	}
	body["shards"] = shards
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.st.Stats()
	var joins uint64
	for _, m := range s.st.ShardMetrics() {
		joins += m.Counter(obs.MJoins).Value()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"documents": st.Documents,
		"nodes":     st.Nodes,
		"terms":     st.Terms,
		"postings":  st.Postings,
		// process_joins is joins_total summed over this server's engine
		// registries: every fragment join its evaluations have run.
		// Per-query counts live in query.Stats.Ops and /api/v1/metrics.
		"process_joins": joins,
	})
}

// parseStrategy turns the strategy parameter into evaluation options
// plus the name the response echoes ("auto" when none was given).
func parseStrategy(name string) (query.Options, string, error) {
	strat, auto, err := cost.ParseStrategy(name)
	switch {
	case err != nil:
		return query.Options{}, "", err
	case auto:
		return query.Options{Auto: true}, "auto", nil
	default:
		return query.Options{Strategy: strat}, name, nil
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorEnvelope is the uniform v1 error body.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a machine-readable code, a human-readable message
// and the request ID for log correlation.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// error writes an error response in the v1 envelope
// {"error":{"code","message","request_id"}}.
func (s *Server) error(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:      code,
		Message:   err.Error(),
		RequestID: w.Header().Get(RequestIDHeader),
	}})
}

var _ http.Handler = (*Server)(nil)
