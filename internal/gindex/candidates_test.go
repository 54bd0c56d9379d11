package gindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// referenceCandidates is posting-first selection in its first form:
// every group's postings copied into a map from document to
// witnesses, the maps intersected, the survivors sorted by doc ID. The
// merge walk must name the same documents in the same order.
func referenceCandidates(sh *Shard, q query.Query, pp cost.PostingPrune) Candidates {
	groups := q.Groups
	if len(groups) == 0 {
		for _, t := range q.Terms {
			groups = append(groups, []string{t})
		}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	total := len(sh.byName)
	if len(groups) == 0 {
		return Candidates{Names: nil, Total: total, Consulted: false}
	}
	if total == 0 {
		return Candidates{Names: []string{}, Total: 0, Consulted: true}
	}
	perGroup := make([]map[uint32][]Posting, len(groups))
	for gi, alts := range groups {
		wits := make(map[uint32][]Posting)
		for _, alt := range alts {
			var posts []Posting
			if query.IsPhrase(alt) {
				posts = refPhrasePostings(sh, query.PhraseWords(alt))
			} else {
				posts = sh.postingsLocked(alt)
			}
			for _, p := range posts {
				wits[p.Doc] = append(wits[p.Doc], p)
			}
		}
		if len(wits) == 0 {
			return Candidates{Names: []string{}, Total: total, Consulted: true}
		}
		if len(alts) > 1 {
			for doc, ws := range wits {
				wits[doc] = refDedupe(ws)
			}
		}
		perGroup[gi] = wits
	}
	bounds := q.PushBounds()
	var ids []uint32
docs:
	for doc := range perGroup[0] {
		for gi := range perGroup {
			if _, ok := perGroup[gi][doc]; !ok {
				continue docs
			}
		}
		if bounds.Depth > 0 {
			for gi := range perGroup {
				if minWitnessDepth(perGroup[gi][doc]) > bounds.Depth {
					continue docs
				}
			}
		}
		if bounds.Pairwise() && len(perGroup) >= 2 {
			for i := 0; i < len(perGroup); i++ {
				for j := i + 1; j < len(perGroup); j++ {
					wi, wj := perGroup[i][doc], perGroup[j][doc]
					if pp.PairFeasible(len(wi), len(wj)) && pairBoundsViolated(wi, wj, bounds) {
						continue docs
					}
				}
			}
		}
		ids = append(ids, doc)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = sh.docs[id].name
	}
	return Candidates{Names: names, Total: total, Consulted: true}
}

// refPhrasePostings approximates a phrase's witnesses by the first
// word's postings at the (doc, node) keys every word carries.
func refPhrasePostings(sh *Shard, words []string) []Posting {
	key := func(p Posting) uint64 { return uint64(p.Doc)<<32 | uint64(uint32(p.Node)) }
	keysOf := func(posts []Posting) []uint64 {
		keys := make([]uint64, len(posts))
		for i, p := range posts {
			keys[i] = key(p)
		}
		return keys
	}
	first := sh.postingsLocked(words[0])
	keys := keysOf(first)
	for _, w := range words[1:] {
		keys = index.IntersectSorted(nil, keys, keysOf(sh.postingsLocked(w)))
	}
	var out []Posting
	for _, p := range first {
		if i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key(p) }); i < len(keys) && keys[i] == key(p) {
			out = append(out, p)
		}
	}
	return out
}

// refDedupe sorts witnesses by node and drops duplicates.
func refDedupe(ws []Posting) []Posting {
	sort.Slice(ws, func(i, j int) bool { return ws[i].Node < ws[j].Node })
	out := ws[:0]
	for i, w := range ws {
		if i == 0 || w.Node != ws[i-1].Node {
			out = append(out, w)
		}
	}
	return out
}

// randomDoc is a small docgen document over a ten-term vocabulary, so
// terms co-occur on nodes and phrases find witnesses.
func randomDoc(t testing.TB, rng *rand.Rand, name string) *xmltree.Document {
	t.Helper()
	d, err := docgen.Generate(docgen.Config{
		Name: name, Seed: rng.Int63(), Sections: 1 + rng.Intn(3), MeanFanout: 1 + rng.Intn(3),
		Depth: 1 + rng.Intn(3), VocabSize: 10, ZipfS: 1.3, ParLength: 1 + rng.Intn(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomQuery draws one to three groups, each a term, a disjunction or
// a two-word phrase, under a random subset of the four bounds.
func randomQuery(t testing.TB, rng *rand.Rand) query.Query {
	t.Helper()
	term := func() string { return fmt.Sprintf("term%04d", rng.Intn(10)) }
	var kws []string
	for g, n := 0, 1+rng.Intn(3); g < n; g++ {
		switch rng.Intn(4) {
		case 0:
			kws = append(kws, term()+"|"+term())
		case 1:
			kws = append(kws, `"`+term()+" "+term()+`"`)
		case 2:
			kws = append(kws, term()+`|"`+term()+" "+term()+`"`)
		default:
			kws = append(kws, term())
		}
	}
	var clauses []string
	for _, b := range []string{"size", "height", "depth", "width"} {
		if rng.Intn(2) == 0 {
			clauses = append(clauses, fmt.Sprintf("%s<=%d", b, 1+rng.Intn(5)))
		}
	}
	q, err := query.Parse(strings.Join(kws, " "), strings.Join(clauses, ","))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCandidatesMatchReference checks the merge walk against the map
// form on random corpora held partly in segments, partly in the
// memtable, with removed and re-put names, under random queries with
// disjunctive groups, phrases and all four bounds.
func TestCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pp := cost.DefaultPostingPrune()
	tight := cost.PostingPrune{PairBudget: 4}
	outcomes := map[string]int{}
	for c := 0; c < 20; c++ {
		x, err := Open(Options{Dir: t.TempDir(), Shards: 1, FlushBytes: int64(2000 + rng.Intn(20000))})
		if err != nil {
			t.Fatal(err)
		}
		sh := x.Shard(0)
		n := 10 + rng.Intn(40)
		for i := 0; i < n; i++ {
			d := randomDoc(t, rng, fmt.Sprintf("d%03d", rng.Intn(n)))
			sh.Put(d, HashDoc(d))
			if rng.Intn(8) == 0 {
				sh.Remove(fmt.Sprintf("d%03d", rng.Intn(n)))
			}
		}
		for i := 0; i < 50; i++ {
			q := randomQuery(t, rng)
			for _, p := range []cost.PostingPrune{pp, tight} {
				got, want := sh.Candidates(q, p), referenceCandidates(sh, q, p)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("corpus %d, %v under %+v:\nmerge walk %+v\nreference  %+v", c, q, p, got, want)
				}
				switch {
				case len(got.Names) == 0:
					outcomes["none"]++
				case len(got.Names) < got.Total:
					outcomes["some"]++
				default:
					outcomes["all"]++
				}
			}
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if outcomes["none"] < 100 || outcomes["some"] < 100 {
		t.Fatalf("outcomes %v: the queries do not exercise both pruning and survival", outcomes)
	}
	t.Logf("candidate outcomes: %v", outcomes)
}

// checkPostingOrder asserts the invariant the merge walk rests on:
// every term's disk list and memtable list are each sorted by
// (Doc, Node), and every disk doc ID precedes every memtable one.
func checkPostingOrder(t *testing.T, sh *Shard, when string) {
	t.Helper()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var maxDisk uint32
	hasDisk := false
	for _, lists := range []map[string][]Posting{sh.disk, sh.mem} {
		for term, l := range lists {
			for i := 1; i < len(l); i++ {
				if a, b := l[i-1], l[i]; a.Doc > b.Doc || a.Doc == b.Doc && a.Node >= b.Node {
					t.Fatalf("%s: %q postings out of order at %d: %+v then %+v", when, term, i, a, b)
				}
			}
		}
	}
	for _, l := range sh.disk {
		if len(l) > 0 {
			maxDisk, hasDisk = max(maxDisk, l[len(l)-1].Doc), true
		}
	}
	for term, l := range sh.mem {
		if hasDisk && len(l) > 0 && l[0].Doc <= maxDisk {
			t.Fatalf("%s: %q memtable doc %d does not follow disk doc %d", when, term, l[0].Doc, maxDisk)
		}
	}
}

// TestPostingOrderInvariant checks the order invariant after Put,
// Remove, a re-Put of a name, flushes, a background merge and reopen.
func TestPostingOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	m := obs.NewMetrics()
	x, err := Open(Options{Dir: dir, Shards: 1, FlushBytes: 4000, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	sh := x.Shard(0)
	put := func(name string) {
		d := randomDoc(t, rng, name)
		sh.Put(d, HashDoc(d))
	}
	for i := 0; i < 30; i++ {
		put(fmt.Sprintf("d%02d", i))
	}
	checkPostingOrder(t, sh, "put")
	sh.Remove("d03")
	sh.Remove("d17")
	checkPostingOrder(t, sh, "remove")
	put("d05")
	put("d17")
	checkPostingOrder(t, sh, "re-put")
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	checkPostingOrder(t, sh, "flush")
	for i := 0; i < 8*mergeEvery; i++ {
		put(fmt.Sprintf("m%02d", i%20))
		if i%3 == 0 {
			if err := sh.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	x.wg.Wait()
	if merges := m.Counter(obs.MIndexMerges).Value(); merges == 0 {
		t.Fatal("no background merge ran")
	}
	checkPostingOrder(t, sh, "merge")
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	x2, err := Open(Options{Dir: dir, Shards: 1, FlushBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	sh2 := x2.Shard(0)
	checkPostingOrder(t, sh2, "reopen")
	put2 := func(name string) {
		d := randomDoc(t, rng, name)
		sh2.Put(d, HashDoc(d))
	}
	put2("d05")
	put2("z00")
	checkPostingOrder(t, sh2, "put after reopen")
}

// TestCandidatesAllocsFlat pins that the merge walk allocates per
// call, not per posting: a shard whose documents carry many times the
// witnesses per document costs no more allocations.
func TestCandidatesAllocsFlat(t *testing.T) {
	q, err := query.Parse(`alpha|"beta gamma" delta`, "size<=4,width<=40")
	if err != nil {
		t.Fatal(err)
	}
	pp := cost.DefaultPostingPrune()
	allocs := func(perDoc int) (float64, int) {
		x, err := Open(Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		sh := x.Shard(0)
		for i := 0; i < 40; i++ {
			var sb strings.Builder
			sb.WriteString("<doc>")
			for j := 0; j < perDoc; j++ {
				fmt.Fprintf(&sb, "<p>alpha beta gamma delta %d</p>", j)
			}
			sb.WriteString("</doc>")
			d := mustParse(t, fmt.Sprintf("d%02d", i), sb.String())
			sh.Put(d, HashDoc(d))
		}
		n := len(sh.Candidates(q, pp).Names)
		return testing.AllocsPerRun(20, func() { sh.Candidates(q, pp) }), n
	}
	sparse, n1 := allocs(2)
	dense, n2 := allocs(64)
	if n1 != 40 || n2 != 40 {
		t.Fatalf("%d and %d candidates, want every document", n1, n2)
	}
	if dense > sparse {
		t.Fatalf("%.1f allocations at 64 witnesses per document, %.1f at 2: allocations track postings", dense, sparse)
	}
	t.Logf("%.1f allocations per call at 2 and %.1f at 64 witnesses per document", sparse, dense)

	// BenchmarkPostingSelection's row, pinned at its count.
	runtime.GC() // the first collection allocates its mark workers
	if got := testing.AllocsPerRun(20, postingSelectionOp(t)); got != 10 {
		t.Errorf("posting selection allocates %.1f times per call, pinned at 10", got)
	}
}
