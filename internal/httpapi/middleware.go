package httpapi

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader carries the request ID on both the request (honored
// when the client supplies one) and the response.
const RequestIDHeader = "X-Request-Id"

// reqSeq numbers requests of this process for generated request IDs.
var reqSeq atomic.Uint64

// statusRecorder captures the status code written by a handler so the
// middleware can log and count it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming handlers (the
// replication WAL stream) can push chunks through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController on Go 1.20+.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Middleware wraps next with the service's request instrumentation:
// a request ID (honoring an incoming X-Request-Id, else generated),
// panic recovery to a JSON 500, a structured access log via logger,
// and request counters/latency histograms in m. Both logger and m may
// be nil (logging/metrics are then skipped; recovery and IDs remain).
func Middleware(next http.Handler, logger *slog.Logger, m *obs.Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = fmt.Sprintf("req-%06d", reqSeq.Add(1))
		}
		w.Header().Set(RequestIDHeader, id)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				m.Counter(obs.MHTTPPanics).Add(1)
				if logger != nil {
					logger.Error("panic serving request",
						"request_id", id,
						"method", r.Method,
						"path", r.URL.Path,
						"panic", fmt.Sprint(p),
						"stack", string(debug.Stack()),
					)
				}
				if rec.status == 0 {
					// A panic may predate routing, so this body is flat,
					// not the handlers' error envelope.
					writeJSON(rec, http.StatusInternalServerError, map[string]string{
						"error": fmt.Sprintf("internal server error (request %s)", id),
					})
				}
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			m.Counter(obs.MHTTPRequests).Add(1)
			m.Counter(fmt.Sprintf("http_responses_%dxx_total", status/100)).Add(1)
			m.Histogram(obs.MHTTPRequestSeconds, obs.LatencyBuckets).Observe(elapsed.Seconds())
			if logger != nil {
				logger.Info("request",
					"request_id", id,
					"method", r.Method,
					"path", r.URL.Path,
					"status", status,
					"duration", elapsed,
				)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
