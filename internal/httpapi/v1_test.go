package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestV1ErrorEnvelope checks the error shape of /api/v1:
// {"error":{"code","message","request_id"}}.
func TestV1ErrorEnvelope(t *testing.T) {
	s := testServer(t)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/search", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code != "bad_request" {
		t.Fatalf("code = %q", env.Error.Code)
	}
	if !strings.Contains(env.Error.Message, "missing q") {
		t.Fatalf("message = %q", env.Error.Message)
	}
	if env.Error.RequestID == "" || env.Error.RequestID != rec.Header().Get(RequestIDHeader) {
		t.Fatalf("request_id %q does not match header %q", env.Error.RequestID, rec.Header().Get(RequestIDHeader))
	}
}

// TestUnversionedPathsNotFound checks nothing serves outside /api/v1:
// the un-versioned /api/* paths of the first release are 404.
func TestUnversionedPathsNotFound(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/api/docs", "/api/search?q=xquery", "/api/stats", "/api/metrics"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, rec.Code)
		}
	}
}

// TestV1SearchPagination pages through the figure 1 running example
// (4 hits) and checks limit/offset windowing against the full list.
func TestV1SearchPagination(t *testing.T) {
	s := testServer(t)
	const q = "/api/v1/search?q=xquery+optimization&filter=size<=3"

	full := searchResp(t, s, q)
	if full.Total != 4 || full.Returned != 4 {
		t.Fatalf("full: total=%d returned=%d", full.Total, full.Returned)
	}

	var paged []SearchHit
	for offset := 0; offset < full.Total; offset += 2 {
		p := searchResp(t, s, q+"&limit=2&offset="+strconv.Itoa(offset))
		if p.Total != 4 || p.Limit != 2 || p.Offset != offset {
			t.Fatalf("page@%d: total=%d limit=%d offset=%d", offset, p.Total, p.Limit, p.Offset)
		}
		if p.Returned != 2 {
			t.Fatalf("page@%d: returned=%d", offset, p.Returned)
		}
		paged = append(paged, p.Hits...)
	}
	if len(paged) != len(full.Hits) {
		t.Fatalf("pages concatenate to %d hits, full list has %d", len(paged), len(full.Hits))
	}
	for i := range paged {
		if paged[i].Root != full.Hits[i].Root || paged[i].Score != full.Hits[i].Score {
			t.Fatalf("hit %d differs between paged and full listing", i)
		}
	}

	// A page past the end is an empty list, not null — from an
	// evaluation and, once the query is a standing one, from its
	// materialized view.
	pastTheEnd := func(path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q+"&offset=100", nil))
		var past struct {
			Hits     json.RawMessage `json:"hits"`
			Total    int             `json:"total"`
			Returned int             `json:"returned"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &past); err != nil {
			t.Fatal(err)
		}
		if past.Returned != 0 || past.Total != 4 || string(past.Hits) != "[]" {
			t.Fatalf("past-the-end (%s): returned=%d total=%d hits=%s, want 0, 4, []", path, past.Returned, past.Total, past.Hits)
		}
	}
	pastTheEnd("evaluated")
	createWatch(t, s)
	pastTheEnd("standing view")

	for _, bad := range []string{"&offset=-1", "&offset=x", "&limit=0", "&limit=99999"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code = %d", bad, rec.Code)
		}
	}
}

// TestV1SearchOffsetWindow checks that a page past maxSearchWindow is a
// 400, never a top-k sized from offset+limit: a huge offset must not
// overflow the sum into "keep every hit", nor reach an allocation
// sized by it (a panic there kills the server from a worker
// goroutine the middleware cannot recover).
func TestV1SearchOffsetWindow(t *testing.T) {
	s := testServer(t)
	const q = "/api/v1/search?q=xquery+optimization&filter=size<=3"
	for _, bad := range []string{
		"&offset=4611686018427387904", // 2^62
		"&offset=9223372036854775807", // MaxInt64
		"&limit=1000&offset=9223372036854775807",
		"&offset=" + strconv.Itoa(maxSearchWindow-20+1), // window+1 with the default limit
		"&limit=1000&offset=" + strconv.Itoa(maxSearchWindow-1000+1),
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code = %d body %s", bad, rec.Code, rec.Body)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "bad_request" {
			t.Fatalf("%s: envelope = %s", bad, rec.Body)
		}
	}
	// The last page inside the window still serves.
	p := searchResp(t, s, q+"&offset="+strconv.Itoa(maxSearchWindow-20))
	if p.Total != 4 || p.Returned != 0 {
		t.Fatalf("offset at the window: total=%d returned=%d", p.Total, p.Returned)
	}
}

func searchResp(t *testing.T, s *Server, path string) SearchResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: code = %d body %s", path, rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestV1SearchTimeoutParam checks the ?timeout= contract: a malformed
// value is a 400, a microscopic one degrades to 200 with the
// documents that missed the deadline reported per-document, and the
// server cap bounds the client value.
func TestV1SearchTimeoutParam(t *testing.T) {
	s := figureServer(t, Config{QueryTimeout: time.Second, MaxTimeout: time.Second})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/search?q=xquery&timeout=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout: code = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/search?q=xquery&timeout=-5s", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative timeout: code = %d", rec.Code)
	}

	resp := searchResp(t, s, "/api/v1/search?q=xquery+optimization&filter=size<=3&timeout=1ns")
	if len(resp.Errors) != 1 {
		t.Fatalf("1ns timeout: want 1 per-document error, got %v", resp.Errors)
	}
	for _, msg := range resp.Errors {
		if !strings.Contains(msg, "deadline") {
			t.Fatalf("error %q does not mention the deadline", msg)
		}
	}

	// A client asking for an hour is capped at MaxTimeout; the request
	// still answers normally well inside the capped second.
	resp = searchResp(t, s, "/api/v1/search?q=xquery+optimization&filter=size<=3&timeout=1h")
	if resp.Total != 4 || len(resp.Errors) != 0 {
		t.Fatalf("capped timeout: total=%d errors=%v", resp.Total, resp.Errors)
	}
}

// TestOverloadSheds503 fills the admission controller and checks the
// server sheds with 503 + Retry-After while admitted work completes
// untouched — the overload contract of the v1 surface. (Slots are
// taken directly on the semaphore so the test is deterministic: no
// goroutine timing, no real slow queries.)
func TestOverloadSheds503(t *testing.T) {
	s := figureServer(t, Config{
		MaxConcurrent: 2,
		MaxQueue:      1,
		QueueWait:     20 * time.Millisecond,
	})

	// Occupy every evaluation slot, as two long-running queries would.
	for i := 0; i < 2; i++ {
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// The next request queues, waits QueueWait, then sheds.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/search?q=xquery", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "overloaded" {
		t.Fatalf("error code = %q", env.Error.Code)
	}
	if n := s.st.Metrics().Counter(obs.MQueriesShed).Value(); n != 1 {
		t.Fatalf("shed counter = %d", n)
	}

	// Release the slots — the in-flight queries finishing — and the
	// same request is admitted and served.
	s.adm.release()
	s.adm.release()
	resp := searchResp(t, s, "/api/v1/search?q=xquery+optimization&filter=size<=3")
	if resp.Total != 4 {
		t.Fatalf("post-overload search: total = %d", resp.Total)
	}

	// Explain's trace run sits behind the same controller.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/explain?q=xquery&trace=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("explain under overload: code = %d", rec.Code)
	}
	s.adm.release()
	s.adm.release()
}

// TestOverloadQueueAdmits checks the other half of the contract: a
// queued request that gets a slot within QueueWait is served, not
// shed.
func TestOverloadQueueAdmits(t *testing.T) {
	s := figureServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     2 * time.Second,
	})
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.adm.release()
	}()
	resp := searchResp(t, s, "/api/v1/search?q=xquery+optimization&filter=size<=3")
	if resp.Total != 4 {
		t.Fatalf("queued request: total = %d", resp.Total)
	}
}

// TestReadyzStore checks the store-backed report: the full readiness
// document (replay counters, queue saturation) with 200 once serving.
func TestReadyzStore(t *testing.T) {
	s, _ := storeServer(t, store.Options{Shards: 2, QueueSize: 8}, Config{})
	if w := postDoc(t, s, "/api/v1/docs", "r.xml", "<doc><par>ready</par></doc>"); w.Code != http.StatusCreated {
		t.Fatalf("add: %d", w.Code)
	}
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz = %d %v", rec.Code, body)
	}
	if body["documents"].(float64) != 1 || body["ingest_queue_capacity"].(float64) != 8 {
		t.Fatalf("readiness document incomplete: %v", body)
	}
	if _, present := body["replaying"]; !present {
		t.Fatalf("readiness must report replay state: %v", body)
	}
}
