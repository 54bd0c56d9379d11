package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// TraceIDHeader carries the trace ID of a sampled request on the
// response, so a caller that got traced (by sampling, ?trace=1, or an
// incoming Traceparent) knows which ID to look up under
// /api/v1/debug/trace/{id}.
const TraceIDHeader = "X-Xfrag-Trace-Id"

// traceMiddleware decides per request whether to record a full trace
// into the flight recorder. A request is traced when any of:
//
//   - it carries a sampled W3C Traceparent header (an upstream caller
//     is tracing; we continue its trace ID),
//   - it asks explicitly with ?trace=1,
//   - the deterministic sampler picks it (every Nth request, N derived
//     from Config.TraceSample).
//
// Unsampled requests pass through with zero added allocation: no
// context values are attached, so every SpanFromContext check down
// the stack answers nil without work. Sampled requests get a root
// span carrying the request ID, and the response echoes the trace ID
// in X-Xfrag-Trace-Id and a Traceparent header.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, upSampled, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		force := (ok && upSampled) || strings.Contains(r.URL.RawQuery, "trace=1")
		if !force && (s.sampleEvery == 0 || s.sampleSeq.Add(1)%s.sampleEvery != 0) {
			next.ServeHTTP(w, r)
			return
		}
		if !ok {
			id = obs.TraceID{} // StartTrace mints a fresh one
		}
		tr := s.rec.StartTrace("http", r.Method+" "+r.URL.Path, id)
		if tr == nil { // no recorder configured
			next.ServeHTTP(w, r)
			return
		}
		root := tr.Root()
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		// Middleware (the outer wrapper) has already stamped the request
		// ID on the response; recording it on the root span ties access
		// log lines to traces.
		if rid := w.Header().Get(RequestIDHeader); rid != "" {
			root.SetAttr("request_id", rid)
		}
		w.Header().Set(TraceIDHeader, tr.ID().String())
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(tr.ID(), true))
		// Finish in a defer so a panicking handler still lands its trace
		// in the recorder (with whatever spans it accumulated).
		defer tr.Finish(0)
		next.ServeHTTP(w, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
	})
}

// handleDebugSlow serves GET /api/v1/debug/slow: the flight
// recorder's ring of queries that finished at or over the slow
// threshold, newest first, each with its full span tree.
func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": s.rec.Threshold().Milliseconds(),
		"traces":       s.rec.Slow(),
	})
}

// handleDebugInflight serves GET /api/v1/debug/inflight: every trace
// started but not yet finished, with live durations — what the server
// is doing right now.
func (s *Server) handleDebugInflight(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.rec.Inflight()})
}

// handleDebugTrace serves GET /api/v1/debug/trace/{id}: every record
// the flight recorder holds for one trace ID — typically the HTTP
// request's trace, plus any continuation traces it spawned (an async
// ingest job, a replication stream).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, ok := obs.ParseTraceID(raw)
	if !ok {
		s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad trace id %q (want 32 hex digits)", raw))
		return
	}
	recs := s.rec.Lookup(id)
	if len(recs) == 0 {
		s.error(w, http.StatusNotFound, "not_found", errors.New("trace not found (expired from the ring, or never sampled)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id.String(), "records": recs})
}
