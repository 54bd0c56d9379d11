package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/standing"
	"repro/internal/store"
)

func postJSON(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func createWatch(t testing.TB, s *Server) (id string, seq uint64) {
	t.Helper()
	rec := postJSON(t, s, "/api/v1/watch", `{"query":"xquery optimization","filter":"size<=3"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("watch create = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		ID      string `json:"id"`
		Seq     uint64 `json:"seq"`
		Matches int    `json:"matches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatalf("create body missing id: %s", rec.Body)
	}
	return resp.ID, resp.Seq
}

func drainWatch(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Watch().Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestWatchLifecycleHTTP drives the whole subscription life through the
// public surface: register, snapshot, delta on ingest, resume via
// ?since, cancel.
func TestWatchLifecycleHTTP(t *testing.T) {
	s := testServer(t)
	id, seq := createWatch(t, s)
	if seq != 0 {
		t.Fatalf("fresh watch seq = %d, want 0", seq)
	}

	// The listing shows it.
	rec, body := get(t, s, "/api/v1/watch")
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d", rec.Code)
	}
	subs := body["subscriptions"].([]any)
	if len(subs) != 1 || subs[0].(map[string]any)["id"] != id {
		t.Fatalf("list = %v", body)
	}
	if subs[0].(map[string]any)["matches"].(float64) != 4 {
		t.Fatalf("figure 1 standing query must materialize 4 matches: %v", subs[0])
	}

	// Ingest a matching document; the watcher gets exactly one delta.
	if rec := postJSON(t, s, "/api/v1/docs",
		`{"name":"w.xml","xml":"<doc><par>xquery optimization watch probe</par></doc>"}`); rec.Code != http.StatusCreated {
		t.Fatalf("add = %d: %s", rec.Code, rec.Body)
	}
	drainWatch(t, s)
	rec, body = get(t, s, "/api/v1/watch/"+id+"?since=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("poll = %d: %s", rec.Code, rec.Body)
	}
	events := body["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	ev := events[0].(map[string]any)
	if ev["type"] != "delta" || ev["doc"] != "w.xml" || len(ev["added"].([]any)) == 0 {
		t.Fatalf("delta = %v", ev)
	}
	newSeq := uint64(body["seq"].(float64))

	// Resuming past the delta returns nothing.
	_, body = get(t, s, fmt.Sprintf("/api/v1/watch/%s?since=%d", id, newSeq))
	if events := body["events"].([]any); len(events) != 0 {
		t.Fatalf("resume events = %v", events)
	}

	// ?snapshot=1 serves the materialized view including the new doc.
	_, body = get(t, s, "/api/v1/watch/"+id+"?snapshot=1")
	if body["matches"].(float64) != 5 {
		t.Fatalf("snapshot matches = %v, want 5", body["matches"])
	}

	// Cancel; the id is gone from every endpoint.
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/watch/"+id, nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/watch/"+id, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("second delete = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/watch/"+id, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("poll after delete = %d", rec.Code)
	}
}

// TestWatchLongPollWait checks ?wait= holds the request until an event
// arrives instead of busy-polling.
func TestWatchLongPollWait(t *testing.T) {
	s := testServer(t)
	id, _ := createWatch(t, s)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/watch/"+id+"?since=0&wait=10s", nil))
		done <- rec
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	if rec := postJSON(t, s, "/api/v1/docs",
		`{"name":"late.xml","xml":"<doc><par>xquery optimization late arrival</par></doc>"}`); rec.Code != http.StatusCreated {
		t.Fatalf("add = %d", rec.Code)
	}
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("held poll = %d: %s", rec.Code, rec.Body)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if events := body["events"].([]any); len(events) != 1 {
			t.Fatalf("held poll events = %v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held poll never returned")
	}

	// An expired hold answers 200 with no events, not an error.
	rec := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/api/v1/watch/%s?since=%d&wait=30ms", id, s.Watch().List()[0].Seq()), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("expired hold = %d: %s", rec.Code, rec.Body)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("hold returned before the wait elapsed")
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if events := body["events"].([]any); len(events) != 0 {
		t.Fatalf("expired hold events = %v", events)
	}
}

// TestWatchSSEStream checks the happy-path stream: hello frame, then
// one named event per delta with the sequence number as the SSE id.
func TestWatchSSEStream(t *testing.T) {
	s := testServer(t)
	id, _ := createWatch(t, s)
	if rec := postJSON(t, s, "/api/v1/docs",
		`{"name":"sse.xml","xml":"<doc><par>xquery optimization streamed</par></doc>"}`); rec.Code != http.StatusCreated {
		t.Fatalf("add = %d", rec.Code)
	}
	drainWatch(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v1/watch/"+id+"?since=0", nil).WithContext(ctx)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	s.ServeHTTP(rec, req)

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{"event: hello\n", "event: delta\nid: 1\n", `"doc":"sse.xml"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream missing %q:\n%s", want, out)
		}
	}
}

// TestWatchSSESlowConsumerReset pins the backpressure contract: a
// consumer resuming from a seq that has fallen off the bounded ring
// gets one reset event carrying the snapshot and the stream ends —
// the server never buffers unboundedly and never blocks ingest.
func TestWatchSSESlowConsumerReset(t *testing.T) {
	s := figureServer(t, Config{WatchBuffer: 2})
	id, _ := createWatch(t, s)
	for i := 0; i < 5; i++ {
		if rec := postJSON(t, s, "/api/v1/docs",
			fmt.Sprintf(`{"name":"s%d.xml","xml":"<doc><par>xquery optimization %d</par></doc>"}`, i, i)); rec.Code != http.StatusCreated {
			t.Fatalf("add %d = %d", i, rec.Code)
		}
	}
	drainWatch(t, s)

	// since=0 predates the 2-event ring: the server re-syncs and hangs up
	// without any goroutine needing to cancel the request.
	req := httptest.NewRequest(http.MethodGet, "/api/v1/watch/"+id+"?since=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req) // returns: the reset terminates the stream

	out := rec.Body.String()
	if !strings.Contains(out, "event: reset\n") {
		t.Fatalf("no reset event:\n%s", out)
	}
	if !strings.Contains(out, "id: 5\n") {
		t.Fatalf("reset must carry the current seq:\n%s", out)
	}
	// The reset snapshot holds the full 9-match view (4 + 5 planted).
	var reset struct {
		Hits []standing.Hit `json:"hits"`
	}
	data := out[strings.LastIndex(out, "data: ")+len("data: "):]
	if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &reset); err != nil {
		t.Fatal(err)
	}
	if len(reset.Hits) != 9 {
		t.Fatalf("reset snapshot = %d hits, want 9", len(reset.Hits))
	}
}

// TestWatchSSEErrorGolden is the golden test for the streaming error
// contract: errors on an SSE request arrive as a terminal `error`
// event whose data is the exact v1 envelope.
func TestWatchSSEErrorGolden(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/api/v1/watch/nope", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(RequestIDHeader, "req-golden")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	golden := "event: error\n" +
		`data: {"error":{"code":"not_found","message":"no subscription \"nope\"","request_id":"req-golden"}}` +
		"\n\n"
	if got := rec.Body.String(); got != golden {
		t.Fatalf("stream error frame:\n got: %q\nwant: %q", got, golden)
	}

	// The same failure without Accept: text/event-stream stays plain JSON.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/v1/watch/nope", nil))
	var env ErrorEnvelope
	if err := json.Unmarshal(rec2.Body.Bytes(), &env); err != nil {
		t.Fatalf("non-SSE error not an envelope: %v\n%s", err, rec2.Body)
	}
	if env.Error.Code != "not_found" {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

// TestWatchCreateErrors covers the 4xx surface of POST /watch.
func TestWatchCreateErrors(t *testing.T) {
	s := testServer(t)
	for _, body := range []string{
		`not json`,
		`{"query":""}`,
		`{"query":"x","filter":"bogus<=3"}`,
		`{"query":"x","strategy":"warp-drive"}`,
	} {
		if rec := postJSON(t, s, "/api/v1/watch", body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q → %d, want 400", body, rec.Code)
		}
	}
}

// TestWatchSubscriptionLimit checks the cap answers 429 + Retry-After.
func TestWatchSubscriptionLimit(t *testing.T) {
	s := figureServer(t, Config{MaxSubscriptions: 1})
	createWatch(t, s)
	rec := postJSON(t, s, "/api/v1/watch", `{"query":"other terms"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "subscription_limit" {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

// TestWatchDisabled checks a negative MaxSubscriptions removes the
// watch surface entirely.
func TestWatchDisabled(t *testing.T) {
	s, _ := storeServer(t, store.Options{}, Config{MaxSubscriptions: -1})
	if rec := postJSON(t, s, "/api/v1/watch", `{"query":"x"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("watch on disabled server = %d, want 404", rec.Code)
	}
	if s.Watch() != nil {
		t.Fatal("registry must be nil when disabled")
	}
}

// TestRouteManifest checks GET /api/v1 describes the served surface
// from the same table that mounts it.
func TestRouteManifest(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/v1")
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest = %d", rec.Code)
	}
	if body["service"] != "xfrag" || body["version"] != "v1" {
		t.Fatalf("manifest header = %v", body)
	}
	routes := body["routes"].([]any)
	index := map[string]map[string]any{}
	for _, r := range routes {
		m := r.(map[string]any)
		index[m["method"].(string)+" "+m["path"].(string)] = m
	}
	for _, want := range []string{
		"GET /api/v1/search", "POST /api/v1/docs", "DELETE /api/v1/docs/{name}",
		"POST /api/v1/watch", "GET /api/v1/watch/{id}", "DELETE /api/v1/watch/{id}",
	} {
		if index[want] == nil {
			t.Fatalf("manifest missing %q: %v", want, index)
		}
	}
	// Params are documented for search.
	if params := index["GET /api/v1/search"]["params"].([]any); len(params) == 0 {
		t.Fatal("search route has no documented params")
	}
	// Every row is a served /api/v1 route.
	for key := range index {
		if !strings.Contains(key, "/api/v1") {
			t.Fatalf("manifest row %q is outside /api/v1", key)
		}
	}
}

// TestSearchFastPathServesMaterializedView checks the search fast
// path: a search matching a standing query is answered from the
// materialized view (counted), and the view keeps tracking ingest —
// maintained per document, never dropped.
func TestSearchFastPathServesMaterializedView(t *testing.T) {
	s := testServer(t)
	createWatch(t, s)
	m := s.st.Metrics()

	var resp SearchResponse
	rec, _ := get(t, s, "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	if rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 {
		t.Fatalf("total = %d", resp.Total)
	}
	if m.Counter(obs.MStandingCacheHits).Value() != 1 {
		t.Fatalf("standing cache hits = %d, want 1", m.Counter(obs.MStandingCacheHits).Value())
	}

	// Ingest; the view updates; the fast path serves the fresh answer.
	if rec := postJSON(t, s, "/api/v1/docs",
		`{"name":"fresh.xml","xml":"<doc><par>xquery optimization fresh</par></doc>"}`); rec.Code != http.StatusCreated {
		t.Fatalf("add = %d", rec.Code)
	}
	drainWatch(t, s)
	rec, _ = get(t, s, "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 5 {
		t.Fatalf("post-ingest total = %d, want 5 (stale view?)", resp.Total)
	}
	if m.Counter(obs.MStandingCacheHits).Value() != 2 {
		t.Fatalf("standing cache hits = %d, want 2", m.Counter(obs.MStandingCacheHits).Value())
	}

	// A different query misses the fast path and still works.
	rec, _ = get(t, s, "/api/v1/search?q=xquery+optimization")
	if rec.Code != http.StatusOK {
		t.Fatalf("non-standing search = %d", rec.Code)
	}
	if m.Counter(obs.MStandingCacheHits).Value() != 2 {
		t.Fatal("non-standing query must not count a view hit")
	}
}

// TestWatchOnReplica checks a standing query registered on a read
// replica is fed by the replication stream: a write to the primary
// surfaces as a delta on the replica's watch.
func TestWatchOnReplica(t *testing.T) {
	p := newReplicatedPair(t, 0)
	p.waitSynced(t)

	// Registering a watch is a read-side operation: allowed on replicas.
	id, _ := createWatch(t, p.replica)

	// Write to the primary; the record replicates and the replica's
	// registry turns it into a delta.
	if rec := postJSON(t, p.primary, "/api/v1/docs",
		`{"name":"repl.xml","xml":"<doc><par>xquery optimization replicated</par></doc>"}`); rec.Code != http.StatusCreated {
		t.Fatalf("primary add = %d: %s", rec.Code, rec.Body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, body := get(t, p.replica, "/api/v1/watch/"+id+"?since=0")
		if rec.Code != http.StatusOK {
			t.Fatalf("replica poll = %d: %s", rec.Code, rec.Body)
		}
		if events := body["events"].([]any); len(events) > 0 {
			ev := events[0].(map[string]any)
			if ev["type"] != "delta" || ev["doc"] != "repl.xml" {
				t.Fatalf("replica delta = %v", ev)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicated write never reached the replica's watch")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
