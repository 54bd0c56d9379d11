package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/docgen"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/store"
)

func TestTraceUnsampledByDefault(t *testing.T) {
	s := figureServer(t, Config{})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", table1Query, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if got := rr.Header().Get(TraceIDHeader); got != "" {
		t.Fatalf("unsampled request got a trace ID %q", got)
	}
	if n := len(s.Recorder().Recent()); n != 0 {
		t.Fatalf("recorder holds %d traces for unsampled traffic", n)
	}
}

func TestTraceForcedByQueryParam(t *testing.T) {
	s := figureServer(t, Config{})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", table1Query+"&trace=1", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	raw := rr.Header().Get(TraceIDHeader)
	id, ok := obs.ParseTraceID(raw)
	if !ok {
		t.Fatalf("bad trace ID header %q", raw)
	}
	if tp := rr.Header().Get(obs.TraceparentHeader); !strings.Contains(tp, raw) {
		t.Fatalf("Traceparent %q does not carry trace ID %s", tp, raw)
	}

	recs := s.Recorder().Lookup(id)
	if len(recs) != 1 {
		t.Fatalf("Lookup = %d records, want 1", len(recs))
	}
	root := recs[0].Root
	if root == nil || root.Op != "http" {
		t.Fatalf("root = %+v", root)
	}
	if root.Attrs["method"] != "GET" || root.Attrs["path"] != "/api/v1/search" {
		t.Fatalf("root attrs = %v", root.Attrs)
	}
	// The span tree must reach the kernel: document evaluation with
	// operator children.
	tree := root.Render()
	for _, op := range []string{"document", "evaluate", "seed"} {
		if !strings.Contains(tree, op) {
			t.Fatalf("trace missing %q span:\n%s", op, tree)
		}
	}
	// The handler annotated the record with the query summary.
	if recs[0].Extra["query"] != "xquery optimization" {
		t.Fatalf("extras = %v", recs[0].Extra)
	}
}

func TestTraceSamplerEveryRequest(t *testing.T) {
	s := figureServer(t, Config{TraceSample: 1})
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("GET", table1Query, nil))
		if rr.Header().Get(TraceIDHeader) == "" {
			t.Fatalf("request %d not traced under TraceSample=1", i)
		}
	}
	if n := len(s.Recorder().Recent()); n != 3 {
		t.Fatalf("recorded %d traces, want 3", n)
	}
}

func TestTraceSamplerFraction(t *testing.T) {
	s := figureServer(t, Config{TraceSample: 0.25})
	traced := 0
	for i := 0; i < 40; i++ {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		if rr.Header().Get(TraceIDHeader) != "" {
			traced++
		}
	}
	if traced != 10 {
		t.Fatalf("deterministic 1-in-4 sampler traced %d of 40", traced)
	}
}

func TestTraceparentContinuation(t *testing.T) {
	s := figureServer(t, Config{})
	upstream := obs.NewTraceID()

	req := httptest.NewRequest("GET", table1Query, nil)
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(upstream, true))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Header().Get(TraceIDHeader); got != upstream.String() {
		t.Fatalf("sampled traceparent: trace ID %q, want upstream %s", got, upstream)
	}
	if len(s.Recorder().Lookup(upstream)) != 1 {
		t.Fatal("upstream trace ID not recorded")
	}

	// An unsampled traceparent must NOT force tracing.
	req = httptest.NewRequest("GET", table1Query, nil)
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.NewTraceID(), false))
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Header().Get(TraceIDHeader); got != "" {
		t.Fatalf("unsampled traceparent still traced: %q", got)
	}
}

func TestTraceRequestIDPropagation(t *testing.T) {
	s := figureServer(t, Config{})
	req := httptest.NewRequest("GET", table1Query+"&trace=1", nil)
	req.Header.Set(RequestIDHeader, "req-client-42")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)

	id, _ := obs.ParseTraceID(rr.Header().Get(TraceIDHeader))
	recs := s.Recorder().Lookup(id)
	if len(recs) != 1 {
		t.Fatalf("Lookup = %d records", len(recs))
	}
	if got := recs[0].Root.Attrs["request_id"]; got != "req-client-42" {
		t.Fatalf("root request_id attr = %q, want the client-supplied ID", got)
	}
}

func TestTraceFinishedOnPanic(t *testing.T) {
	// A panicking handler inside the trace middleware must still land
	// its trace in the recorder (the deferred Finish), and the outer
	// middleware still converts the panic to a 500.
	rec := obs.NewRecorder(8, time.Hour)
	s := &Server{rec: rec}
	panicky := s.traceMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	h := Middleware(panicky, nil, obs.NewMetrics())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/search?trace=1", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if n := len(rec.Recent()); n != 1 {
		t.Fatalf("recorded %d traces after panic, want 1", n)
	}
	if n := len(rec.Inflight()); n != 0 {
		t.Fatalf("%d traces stuck in-flight after panic", n)
	}
}

func TestDebugEndpoints(t *testing.T) {
	// A nanosecond threshold classifies every finished query as slow.
	s := figureServer(t, Config{SlowQueryThreshold: time.Nanosecond})

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", table1Query+"&trace=1", nil))
	traceID := rr.Header().Get(TraceIDHeader)

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/slow", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug/slow status %d", rr.Code)
	}
	var slow struct {
		ThresholdMS int64 `json:"threshold_ms"`
		Traces      []struct {
			ID string `json:"trace_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Traces) != 1 || slow.Traces[0].ID != traceID {
		t.Fatalf("slow ring = %+v, want the traced query", slow)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/inflight", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug/inflight status %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/trace/"+traceID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug/trace status %d: %s", rr.Code, rr.Body)
	}
	var lookup struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &lookup); err != nil {
		t.Fatal(err)
	}
	if len(lookup.Records) != 1 {
		t.Fatalf("lookup records = %d, want 1", len(lookup.Records))
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/trace/zzzz", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad trace ID status %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/trace/"+obs.NewTraceID().String(), nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", rr.Code)
	}
}

func TestBuildInfoExposed(t *testing.T) {
	s := figureServer(t, Config{})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/metrics", nil))
	var body struct {
		BuildInfo map[string]string `json:"build_info"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.BuildInfo["goversion"] == "" || body.BuildInfo["version"] == "" {
		t.Fatalf("build_info = %v", body.BuildInfo)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/metrics?format=prom", nil))
	out := rr.Body.String()
	if !strings.Contains(out, "# TYPE xfrag_build_info gauge") || !strings.Contains(out, `xfrag_build_info{goversion=`) {
		t.Fatalf("prometheus exposition missing build_info:\n%s", out)
	}
}

// TestTraceAsyncIngestContinuation verifies the async pipeline keeps
// the submitting request's trace ID: the ingest worker records a
// second trace (parse + index spans) under the same ID, so the debug
// endpoint returns both the HTTP admission record and the background
// job record.
func TestTraceAsyncIngestContinuation(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close(context.Background()) })
	s := NewStoreWithConfig(st, Config{})

	body := strings.NewReader(`{"name":"tracedoc","xml":"<a><b>searchable text</b></a>"}`)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("POST", "/api/v1/docs?async=1&trace=1", body))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	traceID := rr.Header().Get(TraceIDHeader)
	id, ok := obs.ParseTraceID(traceID)
	if !ok {
		t.Fatalf("bad trace ID %q", traceID)
	}
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		job, ok := st.Job(accepted.Job)
		if ok && job.Status == store.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", job)
		}
		time.Sleep(2 * time.Millisecond)
	}

	recs := s.Recorder().Lookup(id)
	if len(recs) != 2 {
		t.Fatalf("Lookup = %d records, want http + ingest-job", len(recs))
	}
	var sawIngest bool
	for _, rec := range recs {
		if rec.Op != "ingest-job" {
			continue
		}
		sawIngest = true
		tree := rec.Root.Render()
		if !strings.Contains(tree, "parse") || !strings.Contains(tree, "index") {
			t.Fatalf("ingest trace missing parse/index spans:\n%s", tree)
		}
		if rec.Root.Attrs["queue_wait"] == "" {
			t.Fatal("ingest trace missing queue_wait attribution")
		}
	}
	if !sawIngest {
		t.Fatal("no ingest-job record under the request's trace ID")
	}
}

// TestTraceEndToEndReplicated is the tentpole acceptance test: a
// 2-shard durable primary replicated to an in-memory replica; one
// traced query against the replica must produce a single trace ID
// stitching HTTP admission → per-shard scatter-gather → per-document
// evaluation → kernel operator spans, retrievable from
// /api/v1/debug/trace/{id} — while the replication follower's own
// stream traces (slow-exempt) record frame application under the
// stream's trace ID.
func TestTraceEndToEndReplicated(t *testing.T) {
	pst, err := store.Open(store.Options{Dir: t.TempDir(), Shards: 2, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close(context.Background()) })
	if err := pst.Add(docgen.FigureOne()); err != nil {
		t.Fatal(err)
	}
	primary := NewStoreWithConfig(pst, Config{Replication: &ReplicationConfig{
		Role:   RolePrimary,
		Stream: repl.Server{Poll: 5 * time.Millisecond, Heartbeat: 20 * time.Millisecond},
	}})
	primarySrv := httptest.NewServer(primary)
	t.Cleanup(primarySrv.Close)

	rst, err := store.Open(store.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rst.Close(context.Background()) })
	recorder := obs.NewRecorder(32, time.Hour)
	follower := &repl.Follower{
		PrimaryURL:    primarySrv.URL,
		Store:         rst,
		Metrics:       rst.Metrics(),
		RetryInterval: 20 * time.Millisecond,
		Recorder:      recorder,
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := follower.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); follower.Wait() })
	replica := NewStoreWithConfig(rst, Config{
		Recorder: recorder,
		Replication: &ReplicationConfig{
			Role:       RoleReplica,
			PrimaryURL: primarySrv.URL,
			Follower:   follower,
		},
	})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lag := follower.Lag()
		if lag.Connected && lag.Synced && lag.MaxLagRecords == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	rr := httptest.NewRecorder()
	replica.ServeHTTP(rr, httptest.NewRequest("GET", table1Query+"&trace=1", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("replica search status %d: %s", rr.Code, rr.Body)
	}
	traceID := rr.Header().Get(TraceIDHeader)
	if _, ok := obs.ParseTraceID(traceID); !ok {
		t.Fatalf("bad trace ID %q", traceID)
	}

	// One trace ID stitches the whole request: fetch it back through
	// the debug endpoint and walk the span tree.
	rr = httptest.NewRecorder()
	replica.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/trace/"+traceID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("debug/trace status %d: %s", rr.Code, rr.Body)
	}
	var lookup struct {
		TraceID string `json:"trace_id"`
		Records []struct {
			ID   string    `json:"trace_id"`
			Root *obs.Span `json:"root"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &lookup); err != nil {
		t.Fatal(err)
	}
	if lookup.TraceID != traceID || len(lookup.Records) != 1 {
		t.Fatalf("lookup = %+v", lookup)
	}
	root := lookup.Records[0].Root
	if root.Op != "http" {
		t.Fatalf("root op = %q", root.Op)
	}
	// Expect one shard child per store shard, each with queue-wait
	// attribution; under a shard that held the document: document →
	// evaluate → kernel operators.
	shards := 0
	sawKernel := false
	for _, c := range root.Children {
		if c.Op != "shard" {
			continue
		}
		shards++
		if c.Attrs["queue_wait"] == "" {
			t.Fatalf("shard span missing queue_wait: %+v", c)
		}
		for _, d := range c.Children {
			if d.Op != "document" {
				continue
			}
			tree := d.Render()
			if strings.Contains(tree, "evaluate") && strings.Contains(tree, "seed") {
				sawKernel = true
			}
		}
	}
	if shards != 2 {
		t.Fatalf("trace shows %d shard spans, want 2:\n%s", shards, root.Render())
	}
	if !sawKernel {
		t.Fatalf("trace never reached the kernel:\n%s", root.Render())
	}

	// The follower's stream traces live in the same recorder: visible
	// through the replica's inflight debug endpoint (streams are
	// long-lived), with per-batch apply spans carrying the stream's
	// trace ID stamped by the primary.
	rr = httptest.NewRecorder()
	replica.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/debug/inflight", nil))
	var inflight struct {
		Traces []struct {
			Op   string    `json:"op"`
			ID   string    `json:"trace_id"`
			Root *obs.Span `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &inflight); err != nil {
		t.Fatal(err)
	}
	streams := 0
	applies := 0
	for _, tr := range inflight.Traces {
		if tr.Op != "repl-stream" {
			continue
		}
		streams++
		for _, c := range tr.Root.Children {
			if c.Op == "apply" {
				applies++
				if c.Attrs["origin_trace"] != tr.ID {
					t.Fatalf("apply span origin_trace = %q, want stream trace %s", c.Attrs["origin_trace"], tr.ID)
				}
			}
		}
	}
	if streams != 2 {
		t.Fatalf("inflight shows %d repl-stream traces, want one per primary shard (2)", streams)
	}
	if applies == 0 {
		t.Fatal("no apply spans recorded on the replication stream traces")
	}
}
