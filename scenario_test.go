package xfrag_test

// Scenario test: a simulated user session across a heterogeneous
// corpus, exercising the public API the way a deployed service would
// — presets, caching, phrases, disjunctions, structural filters —
// with global invariants asserted on every answer.

import (
	"context"
	"fmt"
	"testing"

	xfrag "repro"
)

func TestScenarioSession(t *testing.T) {
	coll := xfrag.NewCollection()

	// Heterogeneous corpus: the paper's document, the play, and two
	// generated genres with planted topics.
	if err := coll.Add(xfrag.FigureOneDocument()); err != nil {
		t.Fatal(err)
	}
	play, err := xfrag.Load("testdata/play.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(play.Document()); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []xfrag.GeneratorConfig{
		{Name: "genre-a.xml", Seed: 11, Sections: 5, MeanFanout: 4, Depth: 3, VocabSize: 500,
			Plant: map[string]int{"topicalpha": 6, "topicbeta": 6}},
		{Name: "genre-b.xml", Seed: 12, Sections: 10, MeanFanout: 5, Depth: 2, VocabSize: 2000,
			Plant: map[string]int{"topicalpha": 4, "topicgamma": 8}},
	} {
		d, err := xfrag.GenerateDocument(cfg)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if err := coll.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if coll.Len() != 4 {
		t.Fatalf("corpus = %d documents", coll.Len())
	}

	session := []struct {
		q, f        string
		wantMinHits int
	}{
		{"xquery optimization", "size<=3", 4},
		{"topicalpha topicbeta", "size<=6", 1},
		{"topicalpha topicgamma", "size<=6", 1},
		{"topicalpha topicbeta|topicgamma", "size<=6", 2},
		{`"rewriting rules" xquery`, "size<=3", 1},
		{"scroll neighbourhood", "size<=6,within=//scene", 1},
		{"keeper archive", "size<=8,height<=3", 1},
		{"topicalpha topicbeta", "size<=6,leaves<=2", 1},
		{"nosuchword anywhere", "size<=4", 0},
	}
	for round := 0; round < 2; round++ { // second round: determinism
		for _, step := range session {
			res, err := xfrag.SearchContext(context.Background(), coll, step.q, step.f)
			if err != nil {
				t.Fatalf("%q/%q: %v", step.q, step.f, err)
			}
			if len(res.Errors) != 0 {
				t.Fatalf("%q/%q: per-document errors %v", step.q, step.f, res.Errors)
			}
			if len(res.Hits) < step.wantMinHits {
				t.Fatalf("%q/%q: %d hits, want >= %d", step.q, step.f, len(res.Hits), step.wantMinHits)
			}
			q, err := xfrag.ParseQuery(step.q, step.f)
			if err != nil {
				t.Fatal(err)
			}
			pred := q.Predicate()
			for _, h := range res.Hits {
				if !pred.Apply(h.Fragment) {
					t.Fatalf("%q/%q: hit %v violates filter", step.q, step.f, h.Fragment)
				}
			}
			// Scores are deterministic and descending.
			for i := 1; i < len(res.Hits); i++ {
				if res.Hits[i-1].Score < res.Hits[i].Score {
					t.Fatalf("%q/%q: score order violated", step.q, step.f)
				}
			}
		}
	}

	// Document removal mid-session.
	if !coll.Remove("genre-b.xml") {
		t.Fatal("remove failed")
	}
	res, err := xfrag.SearchContext(context.Background(), coll, "topicalpha topicgamma", "size<=6")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("removed document still answers: %d hits", len(res.Hits))
	}
}

func TestScenarioDeterministicOrdering(t *testing.T) {
	// The same collection search twice returns byte-identical hit
	// sequences (document, nodes, score).
	coll := xfrag.NewCollection()
	if err := coll.Add(xfrag.FigureOneDocument()); err != nil {
		t.Fatal(err)
	}
	d, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{
		Name: "det.xml", Seed: 33, Sections: 4, MeanFanout: 4, Depth: 2, VocabSize: 100,
		Plant: map[string]int{"xquery": 3, "optimization": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(d); err != nil {
		t.Fatal(err)
	}
	fingerprint := func() string {
		res, err := xfrag.SearchContext(context.Background(), coll, "xquery optimization", "size<=5")
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, h := range res.Hits {
			s += fmt.Sprintf("%s%v%.6f;", h.Document, h.Fragment.IDs(), h.Score)
		}
		return s
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Fatalf("non-deterministic hit ordering:\n%s\nvs\n%s", a, b)
	}
}
