package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func figure1Engine(t testing.TB) *Engine {
	t.Helper()
	return New(docgen.FigureOne())
}

// runQuery parses a keyword/filter query and evaluates it on e.
func runQuery(e *Engine, keywords, filterSpec string, opts query.Options) (*Answer, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	return e.RunContext(context.Background(), q, opts)
}

func frag(t testing.TB, d *xmltree.Document, ids ...xmltree.NodeID) core.Fragment {
	t.Helper()
	f, err := core.NewFragment(d, ids)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFigure8EndToEnd is the paper's Figure 8 / Section 4 objective as
// an end-to-end query: the target fragment ⟨n16,n17,n18⟩ is retrieved,
// the irrelevant 9-node fragment is excluded.
func TestFigure8EndToEnd(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	d := e.Document()
	target := frag(t, d, 16, 17, 18)
	irrelevant := frag(t, d, 0, 1, 14, 16, 17, 18, 79, 80, 81)
	if !ans.Result.Answers.Contains(target) {
		t.Fatalf("answer set %v missing the Figure 8(b) target", ans.Result.Answers)
	}
	if ans.Result.Answers.Contains(irrelevant) {
		t.Fatal("answer set contains the Figure 8(c) irrelevant fragment")
	}
	if ans.Len() != 4 {
		t.Fatalf("answers = %d, want 4 (Table 1)", ans.Len())
	}
}

func TestEngineQueryBadInputs(t *testing.T) {
	e := figure1Engine(t)
	if _, err := runQuery(e, "", "size<=3", query.Options{}); err == nil {
		t.Fatal("empty keywords must error")
	}
	if _, err := runQuery(e, "x", "bogus", query.Options{}); err == nil {
		t.Fatal("bad filter spec must error")
	}
}

func TestLoadString(t *testing.T) {
	e, err := LoadString("mini.xml", `<doc><a>apple pie</a><b>banana split</b></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := runQuery(e, "apple banana", "size<=3", query.Options{Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Only answer: ⟨n0,n1,n2⟩ (apple in n1, banana in n2, joined at root).
	if ans.Len() != 1 {
		t.Fatalf("answers = %v", ans.Result.Answers)
	}
	if got := ans.Fragments()[0]; got.Size() != 3 || got.Root() != 0 {
		t.Fatalf("answer = %v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/file.xml"); err == nil {
		t.Fatal("Load of missing file must error")
	}
}

func TestSLCABaselineOnEngine(t *testing.T) {
	e := figure1Engine(t)
	got := e.SLCA("XQuery optimization")
	if len(got) != 1 || got[0] != 17 {
		t.Fatalf("SLCA = %v, want [n17]", got)
	}
	elca := e.ELCA("XQuery optimization")
	if len(elca) != 2 || elca[0] != 16 || elca[1] != 17 {
		t.Fatalf("ELCA = %v, want [n16 n17]", elca)
	}
}

func TestGroups(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	groups := ans.Groups()
	// Table 1 answers: ⟨n16,n17,n18⟩ is the sole target; ⟨n16,n17⟩,
	// ⟨n16,n18⟩, ⟨n17⟩ nest inside it as overlapping answers.
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	d := e.Document()
	if !groups[0].Target.Equal(frag(t, d, 16, 17, 18)) {
		t.Fatalf("target = %v", groups[0].Target)
	}
	if len(groups[0].Overlapping) != 3 {
		t.Fatalf("overlapping = %v, want 3", groups[0].Overlapping)
	}
	for _, o := range groups[0].Overlapping {
		if !o.SubsetOf(groups[0].Target) {
			t.Fatalf("overlap %v not inside target", o)
		}
	}
}

func TestGroupsDisjointTargets(t *testing.T) {
	e, err := LoadString("two.xml",
		`<doc><s><p>foo bar</p></s><s><p>foo bar</p></s></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := runQuery(e, "foo bar", "size<=1", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	groups := ans.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 disjoint targets", len(groups))
	}
	for _, g := range groups {
		if len(g.Overlapping) != 0 {
			t.Fatalf("singleton target has overlaps: %v", g)
		}
	}
}

func TestRenderAndWriteFragment(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	out := ans.Render()
	for _, want := range []string{"group 1", "⟨n16,n17,n18⟩", "overlapping:", "strategy=enumerate", "4 fragment(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	var sb strings.Builder
	if err := ans.WriteFragment(&sb, ans.Groups()[0].Target); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("WriteFragment lines = %d, want 3:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "n16 <subsubsection>") {
		t.Fatalf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  n17 <par>") {
		t.Fatalf("second line = %q (children indent one level)", lines[1])
	}
}

func TestEngineAccessors(t *testing.T) {
	e := figure1Engine(t)
	if e.Document().Len() != 82 {
		t.Fatal("Document accessor")
	}
	if e.Index().DocFreq("xquery") != 2 {
		t.Fatal("Index accessor")
	}
}

func TestRunPrebuiltQuery(t *testing.T) {
	e := figure1Engine(t)
	q, err := query.Parse("xquery optimization", "size<=2")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.RunContext(context.Background(), q, query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	d := e.Document()
	want := core.NewSet(frag(t, d, 17), frag(t, d, 16, 17), frag(t, d, 16, 18))
	if !ans.Result.Answers.Equal(want) {
		t.Fatalf("size<=2 answers = %v, want %v", ans.Result.Answers, want)
	}
}

func TestTargetsHidesOverlaps(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	targets := ans.Targets()
	if len(targets) != 1 {
		t.Fatalf("targets = %v, want just the maximal fragment", targets)
	}
	if !targets[0].Equal(frag(t, e.Document(), 16, 17, 18)) {
		t.Fatalf("target = %v", targets[0])
	}
}

func TestLoadTestdataFile(t *testing.T) {
	e, err := Load("../../testdata/article.xml")
	if err != nil {
		t.Fatal(err)
	}
	if e.Document().Len() < 15 {
		t.Fatalf("testdata article too small: %d nodes", e.Document().Len())
	}
	ans, err := runQuery(e, "fragment filters", "size<=8,height<=2", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() == 0 {
		t.Fatal("expected answers on the sample article")
	}
	for _, f := range ans.Fragments() {
		if !f.HasKeyword("fragment") || !f.HasKeyword("filters") {
			t.Fatalf("answer %v misses a term", f)
		}
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	e := figure1Engine(t)
	var wg sync.WaitGroup
	errs := make([]error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
			if err == nil && ans.Len() != 4 {
				err = fmt.Errorf("answers = %d", ans.Len())
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

func TestWitnesses(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	d := e.Document()
	w := ans.Witnesses(frag(t, d, 16, 17, 18))
	if got := w["xquery"]; len(got) != 2 || got[0] != 17 || got[1] != 18 {
		t.Fatalf("xquery witnesses = %v", got)
	}
	if got := w["optimization"]; len(got) != 2 || got[0] != 16 || got[1] != 17 {
		t.Fatalf("optimization witnesses = %v", got)
	}
	// Every answer has at least one witness per term.
	for _, f := range ans.Fragments() {
		for term, nodes := range ans.Witnesses(f) {
			if len(nodes) == 0 {
				t.Fatalf("answer %v has no witness for %q", f, term)
			}
		}
	}
}

func TestWitnessesDisjunctionAndPhrase(t *testing.T) {
	e := figure1Engine(t)
	ans, err := runQuery(e, `xquery "rewriting rules"|optimization`, "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	target := frag(t, e.Document(), 16, 17, 18)
	if !ans.Result.Answers.Contains(target) {
		t.Fatalf("answers = %v", ans.Result.Answers)
	}
	w := ans.Witnesses(target)
	group := `"rewriting rules"|optimization`
	nodes := w[group]
	if len(nodes) != 2 || nodes[0] != 16 || nodes[1] != 17 {
		t.Fatalf("group witnesses = %v (map %v)", nodes, w)
	}
}
