package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/docgen"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// storeServer opens a store under opts, adds docs to it and serves it
// under cfg. Server and store are closed when the test ends.
func storeServer(t testing.TB, opts store.Options, cfg Config, docs ...*xmltree.Document) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close(context.Background()) })
	for _, d := range docs {
		if err := st.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStoreWithConfig(st, cfg)
	t.Cleanup(s.Close)
	return s, st
}

// figureServer serves the Figure 1 document from an in-memory store
// under cfg.
func figureServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, _ := storeServer(t, store.Options{}, cfg, docgen.FigureOne())
	return s
}

func testServer(t testing.TB) *Server {
	t.Helper()
	return figureServer(t, Config{})
}

func get(t testing.TB, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from %s: %v\n%s", path, err, rec.Body.String())
	}
	return rec, body
}

func TestHealth(t *testing.T) {
	rec, body := get(t, testServer(t), "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health = %d %v", rec.Code, body)
	}
	if body["documents"].(float64) != 1 {
		t.Fatalf("documents = %v", body["documents"])
	}
}

func TestListDocs(t *testing.T) {
	rec, body := get(t, testServer(t), "/api/v1/docs")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	docs := body["documents"].([]any)
	if len(docs) != 1 {
		t.Fatalf("docs = %v", docs)
	}
	first := docs[0].(map[string]any)
	if first["name"] != "figure1.xml" || first["nodes"].(float64) != 82 {
		t.Fatalf("doc = %v", first)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s := testServer(t)
	rec, _ := get(t, s, "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 || len(resp.Hits) != 4 {
		t.Fatalf("hits = %d/%d, want 4", len(resp.Hits), resp.Total)
	}
	if resp.Strategy != "auto" {
		t.Fatalf("strategy = %q", resp.Strategy)
	}
	for _, h := range resp.Hits {
		if h.Document != "figure1.xml" || h.Size < 1 || len(h.Nodes) != h.Size {
			t.Fatalf("hit = %+v", h)
		}
	}
	// Top hit carries text from the optimization subsection.
	if !strings.Contains(strings.ToLower(resp.Hits[0].Snippet), "optimization") {
		t.Fatalf("snippet = %q", resp.Hits[0].Snippet)
	}
}

func TestSearchLimit(t *testing.T) {
	s := testServer(t)
	rec, _ := get(t, s, "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3&limit=2")
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 2 || resp.Total != 4 {
		t.Fatalf("limit ignored: %d/%d", len(resp.Hits), resp.Total)
	}
}

func TestSearchErrors(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/api/v1/search",                          // missing q
		"/api/v1/search?q=x&filter=bogus%3C%3D3",  // bad filter
		"/api/v1/search?q=x&strategy=warp-drive",  // bad strategy
		"/api/v1/search?q=x&limit=zero",           // bad limit
		"/api/v1/search?q=x&limit=-3",             // bad limit
		"/api/v1/explain",                         // missing q
		"/api/v1/explain?q=x&strategy=warp-drive", // bad strategy
	}
	for _, path := range cases {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", path, rec.Code)
		}
		if body["error"] == nil {
			t.Errorf("%s → missing error envelope", path)
		}
	}
}

func TestAddDocEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"name":"added.xml","xml":"<doc><par>xquery optimization together</par></doc>"}`
	req := httptest.NewRequest(http.MethodPost, "/api/v1/docs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	// The new document is searchable.
	rec2, _ := get(t, s, "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	var resp SearchResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range resp.Hits {
		if h.Document == "added.xml" {
			found = true
		}
	}
	if !found {
		t.Fatal("added document missing from search results")
	}
}

func TestAddDocErrors(t *testing.T) {
	s := testServer(t)
	cases := []string{
		`not json`,
		`{"name":"","xml":"<a/>"}`,
		`{"name":"x.xml","xml":""}`,
		`{"name":"x.xml","xml":"<unclosed"}`,
		`{"name":"figure1.xml","xml":"<a/>"}`, // duplicate
	}
	for _, body := range cases {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/docs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q → %d, want 400", body, rec.Code)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/v1/explain?q=xquery+optimization&filter=size%3C%3D3&strategy=push-down")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	logical := body["logical"].(string)
	physical := body["physical"].(string)
	if !strings.Contains(logical, "⋈*") {
		t.Fatalf("logical plan = %q", logical)
	}
	if !strings.Contains(physical, "σ size<=3") {
		t.Fatalf("physical plan = %q", physical)
	}
}

func TestMethodRouting(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/docs", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE /api/v1/docs = %d", rec.Code)
	}
}

func TestNewNilCollection(t *testing.T) {
	s, _ := storeServer(t, store.Options{}, Config{})
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["documents"].(float64) != 0 {
		t.Fatalf("empty server broken: %d %v", rec.Code, body)
	}
	// An empty listing is an empty array, as on /api/v1/watch and
	// search, not null.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/docs", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != `{"documents":[]}` {
		t.Fatalf("empty listing = %s", got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if body["documents"].(float64) != 1 || body["nodes"].(float64) != 82 {
		t.Fatalf("stats = %v", body)
	}
	if body["postings"].(float64) <= 0 {
		t.Fatalf("postings = %v", body["postings"])
	}
}

func TestRemoveDocEndpoint(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/docs/figure1.xml", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body.String())
	}
	// Gone from the listing.
	_, body := get(t, s, "/api/v1/docs")
	if docs, ok := body["documents"].([]any); !ok || len(docs) != 0 {
		t.Fatalf("documents after delete = %v, want []", body["documents"])
	}
	// Second delete 404s.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodDelete, "/api/v1/docs/figure1.xml", nil))
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("second delete = %d", rec2.Code)
	}
}

func TestSearchWithDisjunctionOverHTTP(t *testing.T) {
	s := testServer(t)
	rec, _ := get(t, s, "/api/v1/search?q=xquery+rewriting%7Coptimization&filter=size%3C%3D3")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 {
		t.Fatalf("total = %d, want 4", resp.Total)
	}
	// Disjunctive hits must carry real (non-zero) scores.
	if resp.Hits[0].Score <= 0 {
		t.Fatalf("top score = %v", resp.Hits[0].Score)
	}
}

// TestSearchMatchesCollectionRunTop pins that serving from a sharded
// in-memory store changes no answer: every /api/v1/search page is
// byte-identical to the page cut from one collection.RunTopOn over
// the same documents — hits (document, nodes, root, size, score bits,
// snippet), total and the echoed window.
func TestSearchMatchesCollectionRunTop(t *testing.T) {
	docs := []*xmltree.Document{docgen.FigureOne()}
	for i := 0; i < 4; i++ {
		d, err := docgen.Generate(docgen.Config{
			Name: fmt.Sprintf("gen%d.xml", i), Seed: int64(i + 1), Sections: 3, MeanFanout: 3, Depth: 2,
			VocabSize: 200, ParLength: 10, Plant: map[string]int{"xquery": 2 + i, "optimization": 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	coll := collection.New()
	for _, d := range docs {
		if err := coll.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct{ q, filter string }{
		{"xquery optimization", "size<=3"},
		{"xquery optimization", "size<=5,height<=2"},
		{"xquery rewriting|optimization", "size<=4"},
		{"xquery", ""},
	}
	pages := []struct{ limit, offset int }{{20, 0}, {1, 0}, {1, 1}, {3, 2}, {5, 7}, {1000, 0}, {10, 100}}
	for _, shards := range []int{0, 3} {
		s, _ := storeServer(t, store.Options{Shards: shards}, Config{}, docs...)
		for _, qc := range queries {
			q, err := query.Parse(qc.q, qc.filter)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pages {
				res, err := coll.RunTopOn(context.Background(), q, query.Options{Auto: true}, nil, p.offset+p.limit)
				if err != nil {
					t.Fatal(err)
				}
				want := SearchResponse{Query: qc.q, Filter: qc.filter, Strategy: "auto", Hits: []SearchHit{},
					Total: res.Total, Limit: p.limit, Offset: p.offset}
				for i := p.offset; i < len(res.Hits) && len(want.Hits) < p.limit; i++ {
					want.Hits = append(want.Hits, toHit(res.Hits[i]))
				}
				want.Returned = len(want.Hits)
				wantBody, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				path := fmt.Sprintf("/api/v1/search?q=%s&filter=%s&limit=%d&offset=%d",
					url.QueryEscape(qc.q), url.QueryEscape(qc.filter), p.limit, p.offset)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%d shards, %s: code %d: %s", shards, path, rec.Code, rec.Body)
				}
				if got := bytes.TrimSpace(rec.Body.Bytes()); !bytes.Equal(got, wantBody) {
					t.Fatalf("%d shards, %s:\n got %s\nwant %s", shards, path, got, wantBody)
				}
				if p.offset == 0 && p.limit == 20 && res.Total == 0 {
					t.Fatalf("%q %q matches nothing; the comparison is vacuous", qc.q, qc.filter)
				}
			}
		}
	}
}
