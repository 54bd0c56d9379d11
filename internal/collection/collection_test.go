package collection

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/query"
)

func testCollection(t testing.TB) *Collection {
	t.Helper()
	c := New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("second.xml",
		`<doc><sec><par>XQuery engines love optimization work</par></sec><sec><par>nothing here</par></sec></doc>`); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("unrelated.xml",
		`<doc><par>completely different topics</par></doc>`); err != nil {
		t.Fatal(err)
	}
	return c
}

// search parses a keyword/filter query and runs it across c.
func search(c *Collection, keywords, filterSpec string, opts query.Options) (*Result, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	return c.RunContext(context.Background(), q, opts)
}

func TestSearchAcrossDocuments(t *testing.T) {
	c := testCollection(t)
	res, err := search(c, "xquery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	// Figure 1 contributes 4 answers; second.xml contributes ⟨n2⟩
	// (both terms in one paragraph); unrelated.xml contributes none.
	byDoc := map[string]int{}
	for _, h := range res.Hits {
		byDoc[h.Document]++
	}
	if byDoc["figure1.xml"] != 4 {
		t.Fatalf("figure1 hits = %d, want 4 (%v)", byDoc["figure1.xml"], byDoc)
	}
	if byDoc["second.xml"] != 1 {
		t.Fatalf("second.xml hits = %d, want 1", byDoc["second.xml"])
	}
	if byDoc["unrelated.xml"] != 0 {
		t.Fatal("unrelated.xml must not match")
	}
	// Scores descend.
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i-1].Score < res.Hits[i].Score {
			t.Fatal("hits not sorted by score")
		}
	}
	// Stats per contributing document.
	if _, ok := res.PerDocument["figure1.xml"]; !ok {
		t.Fatal("missing per-document stats")
	}
}

func TestAddDuplicateName(t *testing.T) {
	c := New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(docgen.FigureOne()); err == nil {
		t.Fatal("duplicate name must error")
	}
	if err := c.AddXML("bad.xml", "<unclosed"); err == nil {
		t.Fatal("bad XML must error")
	}
}

func TestNamesAndStats(t *testing.T) {
	c := testCollection(t)
	names := c.Names()
	if len(names) != 3 || names[0] != "figure1.xml" {
		t.Fatalf("Names = %v", names)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Documents != 3 || st.Nodes < 82 || st.Terms == 0 || st.Postings == 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if c.Engine("figure1.xml") == nil || c.Engine("nope") != nil {
		t.Fatal("Engine lookup wrong")
	}
	if c.DocFreq("xquery") != 2 {
		t.Fatalf("DocFreq(xquery) = %d, want 2", c.DocFreq("xquery"))
	}
}

func TestPerDocumentError(t *testing.T) {
	c := New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		t.Fatal(err)
	}
	// Plant a pathological document: the same term on many scattered
	// nodes with no filter makes the unfiltered strategy exceed a tiny
	// budget — only for that document.
	d, err := docgen.Generate(docgen.Config{
		Seed: 5, Sections: 4, MeanFanout: 4, Depth: 3, VocabSize: 50,
		Plant: map[string]int{"xquery": 14, "optimization": 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(d); err != nil {
		t.Fatal(err)
	}
	res, err := search(c, "xquery optimization", "", query.Options{Strategy: 2 /* SetReduction */, MaxFragments: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly the synthetic document to fail", res.Errors)
	}
	for name, e := range res.Errors {
		if name == "figure1.xml" {
			t.Fatal("figure1 should have succeeded")
		}
		if !errors.Is(e, core.ErrBudgetExceeded) {
			t.Fatalf("error = %v, want budget exceeded", e)
		}
	}
	// The healthy document still contributed.
	found := false
	for _, h := range res.Hits {
		if h.Document == "figure1.xml" {
			found = true
		}
	}
	if !found {
		t.Fatal("healthy document must still produce hits")
	}
}

func TestConcurrentSearches(t *testing.T) {
	c := testCollection(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := search(c, "xquery optimization", "size<=3", query.Options{Auto: true})
			if err == nil && len(res.Hits) != 5 {
				err = fmt.Errorf("hits = %d, want 5", len(res.Hits))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchBadQuery(t *testing.T) {
	c := testCollection(t)
	if _, err := search(c, "", "", query.Options{}); err == nil {
		t.Fatal("empty query must error")
	}
	if _, err := search(c, "x", "garbage<=", query.Options{}); err == nil {
		t.Fatal("bad filter must error")
	}
}

func TestEmptyCollection(t *testing.T) {
	c := New()
	res, err := search(c, "anything", "", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatal("empty collection must return no hits")
	}
}

func TestRemove(t *testing.T) {
	c := testCollection(t)
	if !c.Remove("second.xml") {
		t.Fatal("Remove must report presence")
	}
	if c.Remove("second.xml") {
		t.Fatal("second Remove must report absence")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	names := c.Names()
	for _, n := range names {
		if n == "second.xml" {
			t.Fatal("removed name still listed")
		}
	}
	// Searches no longer see the removed document.
	res, err := search(c, "xquery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.Document == "second.xml" {
			t.Fatal("removed document still contributes hits")
		}
	}
}

// TestRunContextCancelled: an expired context returns promptly with a
// per-document error for every unevaluated document instead of
// hanging — partial-result semantics for deadline-bound callers.
func TestRunContextCancelled(t *testing.T) {
	c := testCollection(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := query.Parse("xquery optimization", "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(ctx, q, query.Options{Auto: true})
	if err != nil {
		t.Fatalf("cancelled RunContext should degrade, got error %v", err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("cancelled search returned %d hits", len(res.Hits))
	}
	if len(res.Errors) != c.Len() {
		t.Fatalf("want %d per-document errors, got %d", c.Len(), len(res.Errors))
	}
	for name, e := range res.Errors {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("doc %s: %v, want context.Canceled", name, e)
		}
	}
}

// TestSearchWorkerPoolEquivalence: the bounded pool returns the same
// merged result at any worker count, including a pool of one.
func TestSearchWorkerPoolEquivalence(t *testing.T) {
	c := testCollection(t)
	base, err := search(c, "xquery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 16} {
		c.SetSearchWorkers(workers)
		res, err := search(c, "xquery optimization", "size<=3", query.Options{Auto: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Hits) != len(base.Hits) {
			t.Fatalf("workers=%d: %d hits, want %d", workers, len(res.Hits), len(base.Hits))
		}
		for i := range res.Hits {
			if res.Hits[i].Document != base.Hits[i].Document || res.Hits[i].Score != base.Hits[i].Score {
				t.Fatalf("workers=%d: hit %d differs", workers, i)
			}
		}
	}
	c.SetSearchWorkers(0) // restore default; also covers the reset path
	if _, err := search(c, "xquery optimization", "", query.Options{Auto: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTopOnIsPrefix: RunTopOn with k keeps the first k hits of the
// full list and the full Total; an allow-list evaluates the named
// documents whatever their order, skipping unknown names.
func TestRunTopOnIsPrefix(t *testing.T) {
	c := testCollection(t)
	for i := 0; i < 5; i++ {
		if err := c.AddXML(fmt.Sprintf("tied-%d.xml", i), `<doc><sec><par>xquery</par><par>optimization</par></sec><sec><par>xquery optimization</par></sec></doc>`); err != nil {
			t.Fatal(err)
		}
	}
	q, err := query.Parse("xquery optimization", "size<=3")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full, err := c.RunContext(ctx, q, query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != len(full.Hits) || full.Total < 10 {
		t.Fatalf("full search: total %d, %d hits", full.Total, len(full.Hits))
	}
	for k := 1; k <= full.Total+1; k++ {
		top, err := c.RunTopOn(ctx, q, query.Options{Auto: true}, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if top.Total != full.Total || len(top.Hits) != min(k, full.Total) {
			t.Fatalf("k=%d: total %d with %d hits, want %d with %d", k, top.Total, len(top.Hits), full.Total, min(k, full.Total))
		}
		for i, h := range top.Hits {
			if f := full.Hits[i]; h.Document != f.Document || !h.Fragment.Equal(f.Fragment) || h.Score != f.Score {
				t.Fatalf("k=%d hit %d: %s %v, full list has %s %v", k, i, h.Document, h.Fragment, f.Document, f.Fragment)
			}
		}
	}
	names := c.Names()
	reversed := []string{"no-such.xml"}
	for i := len(names) - 1; i >= 0; i-- {
		reversed = append(reversed, names[i])
	}
	got, err := c.RunContextOn(ctx, q, query.Options{Auto: true}, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != full.Total || len(got.PerDocument) != len(names) {
		t.Fatalf("reversed allow-list: total %d over %d documents, want %d over %d", got.Total, len(got.PerDocument), full.Total, len(names))
	}
	for i, h := range got.Hits {
		if f := full.Hits[i]; h.Document != f.Document || !h.Fragment.Equal(f.Fragment) {
			t.Fatalf("reversed allow-list hit %d: %s %v, want %s %v", i, h.Document, h.Fragment, f.Document, f.Fragment)
		}
	}
}

// TestRunTopAllocsFlat pins the search tail's host-independent proxy:
// a join-heavy RunTopOn(…, 10) allocates per document and per served
// hit, not per answer. The answers stream from the enumerator into each
// document's top-k, so a collection with many times the answers per
// document costs no more allocations.
func TestRunTopAllocsFlat(t *testing.T) {
	q, err := query.Parse("alpha beta", "size<=4")
	if err != nil {
		t.Fatal(err)
	}
	opts := query.Options{Auto: true}
	allocs := func(witnesses int) (float64, int) {
		c := New()
		c.SetSearchWorkers(1)
		for i := 0; i < 8; i++ {
			d, err := docgen.Generate(docgen.Config{
				Name: fmt.Sprintf("d%d.xml", i), Seed: int64(i), Sections: 3, MeanFanout: 3, Depth: 2,
				VocabSize: 300, ParLength: 12, Plant: map[string]int{"alpha": witnesses, "beta": witnesses},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		res, err := c.RunTopOn(ctx, q, opts, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := c.RunTopOn(ctx, q, opts, nil, 10); err != nil {
				t.Fatal(err)
			}
		}), res.Total
	}
	sparse, n1 := allocs(4)
	dense, n2 := allocs(12)
	if n2 < 4*n1 {
		t.Fatalf("%d answers at the high density, %d at the low: the densities do not differ enough", n2, n1)
	}
	if dense > sparse {
		t.Fatalf("%.0f allocations for %d answers, %.0f for %d: allocations track answers", dense, n2, sparse, n1)
	}
	t.Logf("%.0f allocations for %d answers, %.0f for %d", sparse, n1, dense, n2)
}
