package xfrag_test

// Cross-module integration tests: generator → collection → ranking →
// HTTP API, exercised entirely through the public facade, the way a
// downstream user composes the library.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	xfrag "repro"
)

// TestEndToEndPipeline builds a small corpus, searches it through a
// collection, ranks the hits, serializes the best fragment to XML and
// re-parses it — the full product loop.
func TestEndToEndPipeline(t *testing.T) {
	coll := xfrag.NewCollection()

	// One generated "journal", one hand-written note, plus the
	// paper's document.
	gen, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{
		Name: "journal.xml", Seed: 404, Sections: 5, MeanFanout: 4, Depth: 3,
		VocabSize: 300, Plant: map[string]int{"fragmenting": 6, "retrieval": 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(gen); err != nil {
		t.Fatal(err)
	}
	if err := coll.AddXML("note.xml",
		`<note><h>on fragmenting</h><p>retrieval of parts beats whole documents</p></note>`); err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(xfrag.FigureOneDocument()); err != nil {
		t.Fatal(err)
	}

	res, err := xfrag.SearchContext(context.Background(), coll, "fragmenting retrieval", "size<=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("per-document errors: %v", res.Errors)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
	docsSeen := map[string]bool{}
	for _, h := range res.Hits {
		docsSeen[h.Document] = true
		// Every hit fragment contains both terms (Definition 8's
		// conjunctive semantics).
		if !h.Fragment.HasKeyword("fragmenting") || !h.Fragment.HasKeyword("retrieval") {
			t.Fatalf("hit %v misses a query term", h.Fragment)
		}
	}
	if !docsSeen["note.xml"] || !docsSeen["journal.xml"] {
		t.Fatalf("expected hits from both matching documents, got %v", docsSeen)
	}
	if docsSeen["figure1.xml"] {
		t.Fatal("figure1 has neither term; it must not match")
	}

	// The best hit round-trips through fragment XML.
	snippet := xfrag.FragmentXML(res.Hits[0].Fragment)
	reparsed, err := xfrag.ParseDocument("hit.xml", snippet)
	if err != nil {
		t.Fatalf("best hit snippet unparseable: %v\n%s", err, snippet)
	}
	if reparsed.Len() != res.Hits[0].Fragment.Size() {
		t.Fatalf("snippet nodes = %d, fragment size = %d", reparsed.Len(), res.Hits[0].Fragment.Size())
	}
}

// TestEndToEndHTTP drives the same pipeline over a live HTTP server.
func TestEndToEndHTTP(t *testing.T) {
	coll := xfrag.NewCollection()
	if err := coll.Add(xfrag.FigureOneDocument()); err != nil {
		t.Fatal(err)
	}
	h := xfrag.NewHTTPHandler(coll)
	defer h.(io.Closer).Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Upload a second document over the wire.
	body := `{"name":"wire.xml","xml":"<doc><p>xquery optimization pairs</p></doc>"}`
	resp, err := http.Post(srv.URL+"/api/v1/docs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}

	// Search across both.
	resp, err = http.Get(srv.URL + "/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Hits []struct {
			Document string  `json:"document"`
			Size     int     `json:"size"`
			Score    float64 `json:"score"`
		} `json:"hits"`
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 5 {
		t.Fatalf("total = %d, want 5 (4 from figure1 + 1 from wire.xml)", out.Total)
	}
	both := map[string]bool{}
	for _, h := range out.Hits {
		both[h.Document] = true
	}
	if !both["figure1.xml"] || !both["wire.xml"] {
		t.Fatalf("expected hits from both documents: %v", both)
	}
}

// TestRankerOnEngine ranks the running example's answers through the
// facade.
func TestRankerOnEngine(t *testing.T) {
	eng := xfrag.NewEngine(xfrag.FigureOneDocument())
	ans, err := xfrag.QueryContext(context.Background(), eng, "xquery optimization", "size<=3")
	if err != nil {
		t.Fatal(err)
	}
	r := xfrag.NewRanker(eng, []string{"xquery", "optimization"}, xfrag.DefaultRankWeights())
	ranked := r.Rank(ans.Result.Answers)
	if len(ranked) != 4 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Score <= ranked[len(ranked)-1].Score {
		t.Fatal("ranking must discriminate")
	}
}

// TestPlayDocument drives the library over the document-centric play
// markup in testdata — deep structure, structural tag names, long
// text — the data shape the paper targets.
func TestPlayDocument(t *testing.T) {
	eng, err := xfrag.Load("testdata/play.xml")
	if err != nil {
		t.Fatal(err)
	}
	doc := eng.Document()
	if doc.Len() < 50 {
		t.Fatalf("play has %d nodes", doc.Len())
	}

	// "scroll" and "neighbourhood" co-occur only in Act II Scene I:
	// the answer should be a within-scene fragment, not a whole act.
	ans, err := xfrag.QueryContext(context.Background(), eng, "scroll neighbourhood", "size<=6,within=//scene")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() == 0 {
		t.Fatal("expected answers in the play")
	}
	for _, f := range ans.Fragments() {
		if doc.Tag(f.Root()) == "play" || doc.Tag(f.Root()) == "act" {
			t.Fatalf("answer %v escaped the scene level (root <%s>)", f, doc.Tag(f.Root()))
		}
	}

	// The SLCA baseline returns a single node for the same query.
	slca := eng.SLCA("scroll neighbourhood")
	if len(slca) == 0 {
		t.Fatal("baseline found nothing")
	}

	// Fragment XML of the best target is a playable snippet.
	target := ans.Targets()[0]
	snippet := xfrag.FragmentXML(target)
	if _, err := xfrag.ParseDocument("snippet.xml", snippet); err != nil {
		t.Fatalf("snippet unparseable: %v\n%s", err, snippet)
	}
}

// TestPlaySpeakerSearch combines keyword and structural constraints:
// lines spoken in speeches, located via //speech paths.
func TestPlaySpeakerSearch(t *testing.T) {
	eng, err := xfrag.Load("testdata/play.xml")
	if err != nil {
		t.Fatal(err)
	}
	// Each answer must be confined to a single speech.
	ans, err := xfrag.QueryContext(context.Background(), eng, "isabella wandering", "within=//speech,size<=4")
	if err != nil {
		t.Fatal(err)
	}
	doc := eng.Document()
	for _, f := range ans.Fragments() {
		for _, id := range f.IDs() {
			ok := false
			for v := id; v != -1; v = doc.Parent(v) {
				if doc.Tag(v) == "speech" {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("answer node %v not inside a speech", id)
			}
		}
	}
}
