package xfrag_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	xfrag "repro"
)

func TestFacadeRunningExample(t *testing.T) {
	eng := xfrag.NewEngine(xfrag.FigureOneDocument())
	ans, err := xfrag.QueryContext(context.Background(), eng, "XQuery optimization", "size<=3")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Fatalf("answers = %d, want 4", ans.Len())
	}
	target, err := xfrag.NewFragment(eng.Document(), []xfrag.NodeID{16, 17, 18})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Result.Answers.Contains(target) {
		t.Fatal("target fragment missing")
	}
}

func TestFacadeAlgebraExports(t *testing.T) {
	d := xfrag.FigureOneDocument()
	f17 := xfrag.NodeFragment(d, 17)
	f18 := xfrag.NodeFragment(d, 18)
	j := xfrag.Join(f17, f18)
	if j.Size() != 3 || j.Root() != 16 {
		t.Fatalf("join = %v", j)
	}
	F := xfrag.NewFragmentSet(f17, f18)
	if fp := xfrag.FixedPoint(F); fp.Len() != 3 {
		t.Fatalf("fixed point = %v", fp)
	}
	if rf := xfrag.ReductionFactor(F); rf != 0 {
		t.Fatalf("RF = %v", rf)
	}
}

func TestFacadeFiltersAndQueries(t *testing.T) {
	p := xfrag.And(xfrag.MaxSize(3), xfrag.MaxHeight(2))
	if !p.AntiMonotonic {
		t.Fatal("conjunction should stay anti-monotonic")
	}
	q, err := xfrag.ParseQuery("a b", "size<=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Terms) != 2 || !q.HasPushableFilter() {
		t.Fatalf("query = %v", q)
	}
	if _, err := xfrag.NewQuery(nil); err == nil {
		t.Fatal("empty query must error")
	}
	if _, err := xfrag.ParseFilter("size<=oops"); err == nil {
		t.Fatal("bad filter must error")
	}
}

func TestFacadeGenerator(t *testing.T) {
	d, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{Seed: 3, Sections: 2, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < 5 {
		t.Fatalf("tiny document: %d", d.Len())
	}
	if _, err := xfrag.ParseDocument("x.xml", "<a><b>hi</b></a>"); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPHandlerCloseStopsWorkers opens and closes ten handlers over
// Figure 1: each opens a store with ingest workers and a standing-query
// worker, and Close must stop them all.
func TestHTTPHandlerCloseStopsWorkers(t *testing.T) {
	coll := xfrag.NewCollection()
	if err := coll.Add(xfrag.FigureOneDocument()); err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		c, ok := xfrag.NewHTTPHandler(coll).(io.Closer)
		if !ok {
			t.Fatal("the handler does not implement io.Closer")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing 10 handlers, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ExampleLoadString() {
	eng, err := xfrag.LoadString("doc.xml", `
<article>
  <section><title>Trees</title><par>a tree has a root</par></section>
  <section><title>Search</title><par>search trees quickly</par></section>
</article>`)
	if err != nil {
		panic(err)
	}
	ans, err := xfrag.QueryContext(context.Background(), eng, "root search", "size<=5")
	if err != nil {
		panic(err)
	}
	for _, f := range ans.Fragments() {
		fmt.Println(f)
	}
	// Output:
	// ⟨n0,n1,n3,n4,n5⟩
	// ⟨n0,n1,n3,n4,n6⟩
}

func ExampleJoin() {
	d := xfrag.FigureOneDocument()
	f17 := xfrag.NodeFragment(d, 17)
	f18 := xfrag.NodeFragment(d, 18)
	fmt.Println(xfrag.Join(f17, f18))
	// Output: ⟨n16,n17,n18⟩
}
