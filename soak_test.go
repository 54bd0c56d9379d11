package xfrag_test

// Soak tests: push the engine across a large synthetic corpus to
// catch scaling cliffs the unit tests' small documents cannot.
// Skipped under -short.

import (
	"context"
	"testing"

	xfrag "repro"
)

func TestSoakLargeDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	doc, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{
		Name: "soak.xml", Seed: 1234,
		Sections: 20, MeanFanout: 6, Depth: 4, VocabSize: 5000,
		Plant: map[string]int{"soakterma": 12, "soaktermb": 12, "soaktermc": 6, "soaktermd": 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Len() < 10000 {
		t.Fatalf("soak corpus too small: %d nodes", doc.Len())
	}
	eng := xfrag.NewEngine(doc)

	// A battery of queries with varied term counts and filters; every
	// query must finish and respect its filter.
	queries := []struct{ q, f string }{
		{"soakterma soaktermb", "size<=5"},
		{"soakterma soaktermb", "size<=8,height<=3"},
		{"soakterma soaktermb soaktermc", "size<=10"},
		{"soakterma", "size<=2"},
		{"soakterma soaktermb", "size<=6,within=//section"},
	}
	for _, qc := range queries {
		ans, err := xfrag.QueryContext(context.Background(), eng, qc.q, qc.f)
		if err != nil {
			t.Fatalf("%s / %s: %v", qc.q, qc.f, err)
		}
		q, err := xfrag.ParseQuery(qc.q, qc.f)
		if err != nil {
			t.Fatal(err)
		}
		pred := q.Predicate()
		for _, f := range ans.Fragments() {
			if !pred.Apply(f) {
				t.Fatalf("%s / %s: answer %v violates filter", qc.q, qc.f, f)
			}
			for _, term := range q.Terms {
				if !f.HasKeyword(term) {
					t.Fatalf("%s / %s: answer %v misses %q", qc.q, qc.f, f, term)
				}
			}
		}
	}

	// Strategy agreement holds at scale too. The unfiltered strategies
	// are only feasible at moderate keyword frequency (the perf-
	// strategies finding), so the agreement check uses the rarer
	// terms; at frequency 12 set-reduction correctly refuses with a
	// budget error, which the last check asserts.
	q, err := xfrag.ParseQuery("soaktermc soaktermd", "size<=5")
	if err != nil {
		t.Fatal(err)
	}
	push, err := xfrag.RunContext(context.Background(), eng, q, xfrag.WithStrategy(xfrag.PushDown))
	if err != nil {
		t.Fatal(err)
	}
	red, err := xfrag.RunContext(context.Background(), eng, q, xfrag.WithStrategy(xfrag.SetReduction))
	if err != nil {
		t.Fatal(err)
	}
	if !push.Result.Answers.Equal(red.Result.Answers) {
		t.Fatal("strategies disagree at scale")
	}

	// The baseline agrees on witnesses: every SLCA node is inside some
	// cover-answer when the filter permits.
	if got := eng.SLCA("soakterma soaktermb"); len(got) == 0 {
		t.Fatal("baseline found nothing at scale")
	}

	// At frequency 12 the unfiltered strategy must refuse (budget)
	// rather than run away — the Section 3.1 infeasibility made safe.
	qBig, err := xfrag.ParseQuery("soakterma soaktermb", "size<=5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xfrag.RunContext(context.Background(), eng, qBig, xfrag.WithStrategy(xfrag.SetReduction)); err == nil {
		t.Fatal("unfiltered strategy at frequency 12 should exceed the fragment budget")
	}
}
