package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// shardSum adds up one engine series over the per-shard registries of
// a /api/v1/metrics body: counters by value, histograms by count.
func shardSum(t *testing.T, body map[string]any, name string) float64 {
	t.Helper()
	shards, ok := body["shards"].([]any)
	if !ok {
		t.Fatalf("metrics body has no shards array: %v", body)
	}
	var sum float64
	for _, sh := range shards {
		switch v := sh.(map[string]any)[name].(type) {
		case float64:
			sum += v
		case map[string]any:
			sum += v["count"].(float64)
		}
	}
	return sum
}

func TestMetricsEndpointJSON(t *testing.T) {
	s := testServer(t)
	// Drive one search so the evaluation counters are live.
	if rec, _ := get(t, s, "/api/v1/search?q=XQuery+optimization&filter=size<=3"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	rec, body := get(t, s, "/api/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	// Evaluation series live in the per-shard engine registries.
	if q := shardSum(t, body, obs.MQueries); q < 1 {
		t.Fatalf("%s = %v, want >= 1", obs.MQueries, q)
	}
	// The auto search enumerates its answers and joins nothing.
	if n := shardSum(t, body, obs.MEnumNodes); n < 1 {
		t.Fatalf("%s = %v, want >= 1", obs.MEnumNodes, n)
	}
	if rec, _ := get(t, s, "/api/v1/search?q=XQuery+optimization&filter=size<=3&strategy=push-down"); rec.Code != http.StatusOK {
		t.Fatalf("push-down search = %d", rec.Code)
	}
	if rec, body = get(t, s, "/api/v1/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if j := shardSum(t, body, obs.MJoins); j < 1 {
		t.Fatalf("%s = %v, want >= 1", obs.MJoins, j)
	}
	if n := shardSum(t, body, obs.MQuerySeconds); n < 1 {
		t.Fatalf("latency histogram count = %v", n)
	}
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/api/v1/search?q=XQuery+optimization"); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/metrics?format=prom", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics prom = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := rec.Body.String()
	// Evaluation series carry the prefix of the shard that holds the
	// document; HTTP series sit in the store registry.
	shard := fmt.Sprintf("xfrag_shard%d_", s.st.ShardIndex("figure1.xml"))
	for _, want := range []string{
		"# TYPE " + shard + "queries_total counter",
		"# TYPE " + shard + "query_seconds histogram",
		shard + `query_seconds_bucket{le="+Inf"}`,
		"# TYPE xfrag_http_requests_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s := testServer(t)
	// Client-supplied ID is echoed.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(RequestIDHeader, "my-id-42")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "my-id-42" {
		t.Fatalf("request id = %q, want my-id-42", got)
	}
	// Absent ID gets generated.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec2.Header().Get(RequestIDHeader) == "" {
		t.Fatal("no generated request id")
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	m := obs.NewMetrics()
	h := Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), logger, m)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response not JSON: %v\n%s", err, rec.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("panic response missing error: %v", body)
	}
	if m.Counter(obs.MHTTPPanics).Value() != 1 {
		t.Fatalf("%s = %d, want 1", obs.MHTTPPanics, m.Counter(obs.MHTTPPanics).Value())
	}
	if !strings.Contains(logBuf.String(), "boom") {
		t.Fatalf("panic not logged: %s", logBuf.String())
	}
}

func TestRequestLogging(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := storeServer(t, store.Options{}, Config{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	log := logBuf.String()
	for _, want := range []string{"method=GET", "path=/healthz", "status=200", "request_id="} {
		if !strings.Contains(log, want) {
			t.Fatalf("access log missing %q: %s", want, log)
		}
	}
}

func TestSearchLimitCap(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/v1/search?q=XQuery&limit=1001")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400 (%v)", rec.Code, body)
	}
	env := body["error"].(map[string]any)
	if !strings.Contains(env["message"].(string), "1000") {
		t.Fatalf("error = %v, want mention of the cap", env)
	}
	if rec, _ := get(t, s, "/api/v1/search?q=XQuery&limit=1000"); rec.Code != http.StatusOK {
		t.Fatalf("limit=1000 = %d, want 200", rec.Code)
	}
}

func TestSearchTotalAndReturned(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/v1/search?q=XQuery+optimization&filter=size<=3&limit=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if body["total"].(float64) != 4 {
		t.Fatalf("total = %v, want 4", body["total"])
	}
	if body["returned"].(float64) != 2 {
		t.Fatalf("returned = %v, want 2", body["returned"])
	}
	if hits := body["hits"].([]any); len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
}

func TestExplainTrace(t *testing.T) {
	s := testServer(t)
	// Query-parameter name → Strategy.String() as the root span detail.
	details := map[string]string{
		"brute-force":   "brute-force",
		"naive":         "naive-fixed-point",
		"set-reduction": "set-reduction",
		"push-down":     "push-down",
		"auto":          "enumerate",
	}
	for _, strat := range []string{"brute-force", "naive", "set-reduction", "push-down", "auto"} {
		rec, body := get(t, s, "/api/v1/explain?q=XQuery+optimization&filter=size<=3&strategy="+strat+"&trace=1")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code = %d (%v)", strat, rec.Code, body)
		}
		traces, ok := body["traces"].(map[string]any)
		if !ok || len(traces) != 1 {
			t.Fatalf("%s: traces = %v", strat, body["traces"])
		}
		tr := traces["figure1.xml"].(map[string]any)
		if tr["op"] != "evaluate" || tr["detail"] != details[strat] {
			t.Fatalf("%s: root span = %v [%v]", strat, tr["op"], tr["detail"])
		}
		if tr["out"].(float64) != 4 {
			t.Fatalf("%s: out = %v, want 4", strat, tr["out"])
		}
		if len(tr["children"].([]any)) < 4 {
			t.Fatalf("%s: children = %v", strat, tr["children"])
		}
		rendered := body["rendered"].(map[string]any)["figure1.xml"].(string)
		if !strings.Contains(rendered, "evaluate ["+details[strat]+"]") || !strings.Contains(rendered, "seed") {
			t.Fatalf("%s: rendered trace = %s", strat, rendered)
		}
		stats := body["stats"].(map[string]any)["figure1.xml"].(map[string]any)
		if stats["Answers"].(float64) != 4 {
			t.Fatalf("%s: stats = %v", strat, stats)
		}
		// auto's enumeration reports its partial subtrees, not joins.
		ops := stats["Ops"].(map[string]any)
		if enumerated := ops["enum_nodes"].(float64) > 0; enumerated != (strat == "auto") || enumerated != (ops["joins"].(float64) == 0) {
			t.Fatalf("%s: ops = %v", strat, ops)
		}
	}
	// Without trace=1 the old shape is preserved.
	_, body := get(t, s, "/api/v1/explain?q=XQuery&strategy=push-down")
	if _, present := body["traces"]; present {
		t.Fatal("traces present without trace=1")
	}
}
