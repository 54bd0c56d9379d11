package gindex

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func mustParse(t testing.TB, name, xml string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// testCorpus builds n small documents whose terms vary with i.
func testCorpus(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	docs := make([]*xmltree.Document, n)
	for i := 0; i < n; i++ {
		term := "alpha"
		if i%3 == 0 {
			term = "gamma"
		}
		docs[i] = mustParse(t, fmt.Sprintf("doc-%04d", i), fmt.Sprintf(
			"<article><title>%s retrieval</title><sec>xml %s fragment %d</sec><sec>filler text %d</sec></article>",
			term, term, i, i))
	}
	return docs
}

// lookupNodes projects a shard's postings for term onto node IDs per
// document name.
func lookupNodes(sh *Shard, term string) map[string][]xmltree.NodeID {
	out := make(map[string][]xmltree.NodeID)
	sh.mu.RLock()
	byID := make(map[uint32]string)
	for name, id := range sh.byName {
		byID[id] = name
	}
	sh.mu.RUnlock()
	for _, p := range sh.Lookup(term) {
		if name, ok := byID[p.Doc]; ok {
			out[name] = append(out[name], p.Node)
		}
	}
	return out
}

func TestPutLookupAndFlushReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Index {
		x, err := Open(Options{Dir: dir, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	x := open()
	docs := testCorpus(t, 10)
	for _, d := range docs {
		x.Shard(0).Put(d, HashDoc(d))
	}
	if got := x.Docs(); got != len(docs) {
		t.Fatalf("Docs() = %d, want %d", got, len(docs))
	}

	// Every posting must agree with the per-document inverted index.
	check := func(x *Index) {
		t.Helper()
		for _, d := range docs {
			idx := index.New(d)
			for _, term := range idx.Terms() {
				want := idx.LookupExact(term)
				got := lookupNodes(x.Shard(0), term)[d.Name()]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %q: postings %v, want %v", d.Name(), term, got, want)
				}
			}
		}
	}
	check(x)

	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	x2 := open()
	defer x2.Close()
	if got := x2.Docs(); got != len(docs) {
		t.Fatalf("after reopen Docs() = %d, want %d", got, len(docs))
	}
	check(x2)
	for _, d := range docs {
		if !x2.Shard(0).Has(d.Name(), HashDoc(d)) {
			t.Fatalf("reopened index does not cover %s", d.Name())
		}
		if x2.Shard(0).Has(d.Name(), HashDoc(d)+1) {
			t.Fatalf("Has matched a wrong hash for %s", d.Name())
		}
	}
}

func TestRemovePersistsTombstone(t *testing.T) {
	dir := t.TempDir()
	x, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs := testCorpus(t, 4)
	for _, d := range docs {
		x.Shard(0).Put(d, HashDoc(d))
	}
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	// Remove a flushed document, then flush the tombstone.
	if !x.Shard(0).Remove("doc-0001") {
		t.Fatal("Remove reported absent document")
	}
	if x.Shard(0).Remove("doc-0001") {
		t.Fatal("second Remove reported success")
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	x2, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	if x2.Shard(0).Has("doc-0001", HashDoc(docs[1])) {
		t.Fatal("tombstoned document resurrected on reopen")
	}
	if got := x2.Docs(); got != len(docs)-1 {
		t.Fatalf("Docs() = %d, want %d", got, len(docs)-1)
	}
	for _, p := range x2.Shard(0).Lookup("alpha") {
		if name := func() string {
			x2.Shard(0).mu.RLock()
			defer x2.Shard(0).mu.RUnlock()
			return x2.Shard(0).docs[p.Doc].name
		}(); name == "doc-0001" {
			t.Fatal("postings for tombstoned document still live")
		}
	}
}

func TestMergeCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	// FlushBytes=1: every Put flushes a segment, so mergeEvery puts
	// trigger a background merge.
	x, err := Open(Options{Dir: dir, Shards: 1, FlushBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs := testCorpus(t, mergeEvery+2)
	for _, d := range docs {
		x.Shard(0).Put(d, HashDoc(d))
	}
	if err := x.Close(); err != nil { // waits for the background merge
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "shard-0000"))
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segFiles++
		}
	}
	if segFiles >= mergeEvery+2 {
		t.Fatalf("merge never compacted: %d segment files", segFiles)
	}

	x2, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	if got := x2.Docs(); got != len(docs) {
		t.Fatalf("after merge+reopen Docs() = %d, want %d", got, len(docs))
	}
	for _, d := range docs {
		idx := index.New(d)
		for _, term := range idx.Terms() {
			want := idx.LookupExact(term)
			if got := lookupNodes(x2.Shard(0), term)[d.Name()]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q after merge: postings %v, want %v", d.Name(), term, got, want)
			}
		}
	}
}

func TestReplaySourceTake(t *testing.T) {
	x, err := Open(Options{Dir: t.TempDir(), Shards: 1, FlushBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	docs := testCorpus(t, 6)
	for i, d := range docs[:4] {
		x.Shard(0).Put(d, HashDoc(d))
		if i == 1 {
			// Half on disk, half in the memtable: both must be visible.
			if err := x.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rs := x.Shard(0).ReplaySource()

	// Covered document: postings equal the freshly-built index.
	d := docs[2]
	postings, ok := rs.Take(d.Name(), HashDoc(d), d.Len())
	if !ok {
		t.Fatalf("Take refused covered document %s", d.Name())
	}
	idx := index.New(d)
	got := index.FromPostings(d, postings)
	for _, term := range idx.Terms() {
		if !reflect.DeepEqual(got.LookupExact(term), idx.LookupExact(term)) {
			t.Fatalf("%q: reconstituted postings differ", term)
		}
	}
	if len(postings) != idx.Size() {
		t.Fatalf("reconstituted %d terms, want %d", len(postings), idx.Size())
	}

	// Entries are one-shot.
	if _, ok := rs.Take(d.Name(), HashDoc(d), d.Len()); ok {
		t.Fatal("Take consumed the same entry twice")
	}
	// Wrong hash and wrong node count both refuse.
	d2 := docs[3]
	if _, ok := rs.Take(d2.Name(), HashDoc(d2)+1, d2.Len()); ok {
		t.Fatal("Take matched a wrong content hash")
	}
	if _, ok := rs.Take(d2.Name(), HashDoc(d2), d2.Len()+1); ok {
		t.Fatal("Take matched a wrong node count")
	}
	// Unknown name refuses.
	if _, ok := rs.Take("doc-0005", HashDoc(docs[5]), docs[5].Len()); ok {
		t.Fatal("Take matched a document the index never saw")
	}
}

// TestCandidatesSound is the core safety property: posting-first
// selection never excludes a document whose tree evaluation finds an
// answer, across conjunctive queries, disjunctive groups, phrases and
// structural bounds. It also asserts the selection actually prunes in
// the constructed cases.
func TestCandidatesSound(t *testing.T) {
	x, err := Open(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmltree.Document{
		// Both terms on one small element: answers exist under tight bounds.
		mustParse(t, "near.xml", "<a><b>alpha beta</b></a>"),
		// Terms far apart: conjunction holds but size<=2 cannot.
		mustParse(t, "far.xml", "<r><x><x1><x2>alpha</x2></x1></x><y><y1><y2>beta</y2></y1></y></r>"),
		// Missing beta entirely.
		mustParse(t, "onlyalpha.xml", "<a><b>alpha alone</b></a>"),
		// Phrase document.
		mustParse(t, "phrase.xml", "<a><b>alpha beta gamma</b><c>beta</c></a>"),
		// Deep-only witnesses for the maxdepth prune.
		mustParse(t, "deep.xml", "<r><l1><l2><l3><l4>alpha beta</l4></l3></l2></l1></r>"),
	}
	for _, d := range docs {
		x.Shard(0).Put(d, HashDoc(d))
	}

	queries := []struct{ kw, f string }{
		{"alpha beta", ""},
		{"alpha beta", "size<=2"},
		{"alpha beta", "size<=3,height<=1"},
		{"alpha beta", "depth<=3"},
		{"alpha beta", "width<=2"},
		{"alpha|gamma beta", "size<=3"},
		{`"alpha beta"`, "size<=2"},
		{"alpha missingterm", ""},
	}
	pp := cost.DefaultPostingPrune()
	for _, qc := range queries {
		q, err := query.Parse(qc.kw, qc.f)
		if err != nil {
			t.Fatal(err)
		}
		cand := x.Shard(0).Candidates(q, pp)
		if !cand.Consulted {
			t.Fatalf("%s / %s: index not consulted", qc.kw, qc.f)
		}
		in := make(map[string]bool, len(cand.Names))
		for _, n := range cand.Names {
			in[n] = true
		}
		for _, d := range docs {
			ans, err := engine.New(d).RunContext(context.Background(), q, query.Options{Strategy: cost.PushDown})
			if err != nil {
				t.Fatalf("%s on %s: %v", qc.kw, d.Name(), err)
			}
			if ans.Len() > 0 && !in[d.Name()] {
				t.Fatalf("%s / %s: pruned %s which has %d answers",
					qc.kw, qc.f, d.Name(), ans.Len())
			}
		}
	}

	// The constructed prunes fire: far.xml violates size<=2, deep.xml
	// violates maxdepth<=3, onlyalpha.xml fails the conjunction.
	q, _ := query.Parse("alpha beta", "size<=2")
	cand := x.Shard(0).Candidates(q, pp)
	for _, n := range cand.Names {
		if n == "far.xml" {
			t.Fatal("size bound failed to prune far.xml")
		}
		if n == "onlyalpha.xml" {
			t.Fatal("conjunction failed to prune onlyalpha.xml")
		}
	}
	q, _ = query.Parse("alpha beta", "depth<=3")
	for _, n := range x.Shard(0).Candidates(q, pp).Names {
		if n == "deep.xml" {
			t.Fatal("depth bound failed to prune deep.xml")
		}
	}

	// A query with no terms gives the index nothing: not consulted.
	q, _ = query.Parse("", "size<=3")
	if cand := x.Shard(0).Candidates(q, pp); cand.Consulted {
		t.Fatal("term-less query should not consult the index")
	}
}

func TestOpenWipesNothingButFailsOnCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	x, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testCorpus(t, 3) {
		x.Shard(0).Put(d, HashDoc(d))
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-0000")
	entries, err := os.ReadDir(shardDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	path := filepath.Join(shardDir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 1}); err == nil {
		t.Fatal("Open accepted a corrupt segment")
	}
	if err := Wipe(dir); err != nil {
		t.Fatal(err)
	}
	x2, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatalf("open after wipe: %v", err)
	}
	defer x2.Close()
	if got := x2.Docs(); got != 0 {
		t.Fatalf("wiped index still has %d docs", got)
	}
}

func TestPutReplacesAndIDsNeverReused(t *testing.T) {
	x, err := Open(Options{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	v1 := mustParse(t, "doc.xml", "<a><b>first version alpha</b></a>")
	v2 := mustParse(t, "doc.xml", "<a><b>second version beta</b></a>")
	sh := x.Shard(0)
	sh.Put(v1, HashDoc(v1))
	sh.Put(v2, HashDoc(v2))
	if got := x.Docs(); got != 1 {
		t.Fatalf("replace left %d live docs", got)
	}
	if len(sh.Lookup("first")) != 0 {
		t.Fatal("stale postings of the replaced revision are live")
	}
	if len(sh.Lookup("second")) == 0 {
		t.Fatal("replacement postings missing")
	}
	if !sh.Has("doc.xml", HashDoc(v2)) || sh.Has("doc.xml", HashDoc(v1)) {
		t.Fatal("Has does not reflect the replacement")
	}
}

// exhaustivePairBoundsViolated is the Dewey witness-pair bound in its
// exhaustive form: each measure's minimum over all pairs, then the
// verdict.
func exhaustivePairBoundsViolated(wi, wj []witness, b core.Bounds) bool {
	const maxInt = int(^uint(0) >> 1)
	minSize, minHeight, minWidth := maxInt, maxInt, maxInt
	for _, a := range wi {
		for _, c := range wj {
			da, dc := len(a.post.Dewey), len(c.post.Dewey)
			cpl := commonPrefixLen(a.post.Dewey, c.post.Dewey)
			minSize = min(minSize, da+dc-2*cpl+1)
			minHeight = min(minHeight, max(da, dc)-cpl)
			w := int(a.post.Node) - int(c.post.Node)
			minWidth = min(minWidth, max(w, -w))
		}
	}
	return b.Size > 0 && minSize > b.Size ||
		b.Height > 0 && minHeight > b.Height ||
		b.Width > 0 && minWidth > b.Width
}

// TestPairBoundsMatchExhaustive: the early-exit Dewey bound gives the
// exhaustive verdict on random trees, witness sets and bounds.
func TestPairBoundsMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	witnesses := func(d *xmltree.Document) []witness {
		var ws []witness
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			id := xmltree.NodeID(rng.Intn(d.Len()))
			ws = append(ws, witness{post: Posting{Node: id, Dewey: d.Dewey(id)}})
		}
		return dedupeWitnesses(ws)
	}
	verdicts := map[bool]int{}
	for c := 0; c < 3000; c++ {
		d, err := docgen.Generate(docgen.Config{
			Seed: rng.Int63(), Sections: 1 + rng.Intn(4), MeanFanout: 1 + rng.Intn(4),
			Depth: 1 + rng.Intn(4), VocabSize: 10, ParLength: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		wi, wj := witnesses(d), witnesses(d)
		b := core.Bounds{Size: rng.Intn(7), Height: rng.Intn(4), Width: rng.Intn(12)}
		if !b.Pairwise() {
			continue
		}
		got, want := pairBoundsViolated(wi, wj, b), exhaustivePairBoundsViolated(wi, wj, b)
		if got != want {
			t.Fatalf("case %d under %+v: violated %v, exhaustive %v", c, b, got, want)
		}
		verdicts[got]++
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: the generator does not exercise both outcomes", verdicts)
	}
}
