package ranking

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/textutil"
	"repro/internal/xmltree"
)

func figure1Answers(t testing.TB) (*index.Index, *core.Set) {
	t.Helper()
	x := index.New(docgen.FigureOne())
	q := query.MustNew([]string{"xquery", "optimization"}, filter.MaxSize(3))
	res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
	if err != nil {
		t.Fatal(err)
	}
	return x, res.Answers
}

func TestRankRunningExample(t *testing.T) {
	x, answers := figure1Answers(t)
	r := New(x, []string{"xquery", "optimization"}, DefaultWeights())
	ranked := r.Rank(answers)
	if len(ranked) != 4 {
		t.Fatalf("ranked %d answers, want 4", len(ranked))
	}
	// Descending scores.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Fatalf("ranking not descending: %v", ranked)
		}
	}
	// ⟨n17⟩ (both terms on a single deep leaf, no size penalty) should
	// beat ⟨n16,n18⟩ (terms split, one on an interior node, size 2).
	pos := map[string]int{}
	for i, s := range ranked {
		pos[s.Fragment.String()] = i
	}
	if pos["⟨n17⟩"] > pos["⟨n16,n18⟩"] {
		t.Fatalf("⟨n17⟩ should outrank ⟨n16,n18⟩: %v", ranked)
	}
}

func TestScoreComponents(t *testing.T) {
	x, _ := figure1Answers(t)
	d := x.Document()
	r := New(x, []string{"xquery", "optimization"}, DefaultWeights())

	single := core.MustFragment(d, 17)
	target := core.MustFragment(d, 16, 17, 18)
	noTerms := core.MustFragment(d, 2)

	if r.Score(noTerms) != 0 {
		t.Fatalf("fragment without query terms must score 0, got %v", r.Score(noTerms))
	}
	if r.Score(single) <= 0 || r.Score(target) <= 0 {
		t.Fatal("term-bearing fragments must score > 0")
	}
	// Size decay: duplicating the same evidence across a wider
	// fragment must not increase the score linearly.
	big := core.MustFragment(d, 0, 1, 14, 16, 17, 18, 79, 80, 81)
	if r.Score(big) >= r.Score(target) {
		t.Fatalf("9-node fragment (%v) must score below the 3-node target (%v)",
			r.Score(big), r.Score(target))
	}
}

func TestLeafBonus(t *testing.T) {
	x, _ := figure1Answers(t)
	d := x.Document()
	withBonus := New(x, []string{"optimization"}, Weights{SizeDecay: 1, DepthBonus: 0, LeafBonus: 2})
	noBonus := New(x, []string{"optimization"}, Weights{SizeDecay: 1, DepthBonus: 0, LeafBonus: 1})
	// In ⟨n16,n17⟩ optimization sits on both; n17 is the leaf.
	f := core.MustFragment(d, 16, 17)
	a := withBonus.Score(f)
	b := noBonus.Score(f)
	if a <= b {
		t.Fatalf("leaf bonus must raise the score: %v vs %v", a, b)
	}
	// Ratio: (2+1)/(1+1) = 1.5 of the no-bonus score.
	if math.Abs(a/b-1.5) > 1e-9 {
		t.Fatalf("bonus ratio = %v, want 1.5", a/b)
	}
}

func TestIDFWeighting(t *testing.T) {
	// A term appearing in fewer nodes must carry more weight.
	d, err := docgen.Generate(docgen.Config{
		Seed: 77, Sections: 4, MeanFanout: 4, Depth: 2, VocabSize: 100,
		Plant: map[string]int{"rareterm": 2, "commonterm": 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := index.New(d)
	r := New(x, []string{"rareterm", "commonterm"}, Weights{SizeDecay: 1, DepthBonus: 0, LeafBonus: 1})
	var rare, common core.Fragment
	rare = core.NodeFragment(d, d.NodesWithKeyword("rareterm")[0])
	common = core.NodeFragment(d, d.NodesWithKeyword("commonterm")[0])
	// Depth bonus disabled, size 1 each: only IDF differs.
	if r.Score(rare) <= r.Score(common) {
		t.Fatalf("rare term must outweigh common term: %v vs %v", r.Score(rare), r.Score(common))
	}
}

func TestTop(t *testing.T) {
	x, answers := figure1Answers(t)
	r := New(x, []string{"xquery", "optimization"}, DefaultWeights())
	top2 := r.Top(answers, 2)
	if len(top2) != 2 {
		t.Fatalf("Top(2) = %d results", len(top2))
	}
	all := r.Top(answers, 100)
	if len(all) != answers.Len() {
		t.Fatalf("Top(100) = %d, want %d", len(all), answers.Len())
	}
	if top2[0].Score != all[0].Score {
		t.Fatal("Top must agree with Rank")
	}
}

func TestBadWeightsFallBack(t *testing.T) {
	x, answers := figure1Answers(t)
	r := New(x, []string{"xquery"}, Weights{SizeDecay: 0})
	if len(r.Rank(answers)) != answers.Len() {
		t.Fatal("ranker with defaulted weights must still rank")
	}
}

func TestRankDeterministic(t *testing.T) {
	x, answers := figure1Answers(t)
	r := New(x, []string{"xquery", "optimization"}, DefaultWeights())
	a := r.Rank(answers)
	b := r.Rank(answers)
	for i := range a {
		if !a[i].Fragment.Equal(b[i].Fragment) || a[i].Score != b[i].Score {
			t.Fatal("ranking must be deterministic")
		}
	}
}

// referenceScore is Score as first written — a leaf map built from
// Fragment.Leaves and term membership by Document.HasKeyword — kept as
// the specification the allocation-free Score must match bit for bit.
// It sums the terms in query-term order (the first form summed them in
// map order, which made scores with three or more terms vary in their
// last bits from call to call).
func referenceScore(x *index.Index, terms []string, w Weights, f core.Fragment) float64 {
	doc := x.Document()
	leaves := make(map[xmltree.NodeID]bool)
	for _, id := range f.Leaves() {
		leaves[id] = true
	}
	n := float64(doc.Len())
	seen := map[string]bool{}
	score := 0.0
	for _, term := range terms {
		if seen[term] {
			continue
		}
		seen[term] = true
		df := float64(len(x.LookupExact(term)))
		if df == 0 {
			df = 1
		}
		idf := math.Log(1 + n/df)
		termScore := 0.0
		for _, id := range f.IDs() {
			if !doc.HasKeyword(id, term) {
				continue
			}
			tw := 1.0
			if leaves[id] {
				tw = w.LeafBonus
			}
			termScore += tw
		}
		score += idf * termScore
	}
	score *= math.Pow(w.SizeDecay, float64(f.Size()-1))
	score *= 1 + w.DepthBonus*float64(doc.Depth(f.Root()))
	return score
}

// referenceRank is Rank as first written: canonical order, then a
// stable sort by descending score.
func referenceRank(x *index.Index, terms []string, w Weights, answers *core.Set) []Scored {
	var out []Scored
	for _, f := range answers.Sorted() {
		out = append(out, Scored{Fragment: f, Score: referenceScore(x, terms, w, f)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// rankTerms flattens a parsed query into the ranker's terms the way
// collection.RankTerms does: alternatives individually, phrases by
// their words.
func rankTerms(q query.Query) []string {
	var raw []string
	for _, alts := range q.Groups {
		for _, alt := range alts {
			if query.IsPhrase(alt) {
				raw = append(raw, query.PhraseWords(alt)...)
				continue
			}
			raw = append(raw, alt)
		}
	}
	return textutil.NormalizeTerms(raw)
}

// randomCase generates a document with planted terms and answers one
// random query over them — disjunctions, phrases and terms the
// document lacks included.
func randomCase(t testing.TB, rng *rand.Rand) (*index.Index, query.Query, *core.Set) {
	t.Helper()
	d, err := docgen.Generate(docgen.Config{
		Seed: rng.Int63(), Sections: 3 + rng.Intn(3), MeanFanout: 3, Depth: 2, VocabSize: 30, ParLength: 4,
		Plant: map[string]int{"alpha": 2 + rng.Intn(8), "beta": 2 + rng.Intn(8), "gamma": 1 + rng.Intn(5), "delta": 1 + rng.Intn(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		"alpha beta",
		"alpha|gamma beta",
		`"alpha beta" delta`,
		"alpha beta|delta gamma",
		`alpha|"gamma delta" beta term0001`,
		"delta term0000|term0002 absentword",
		"alpha beta gamma delta term0001",
	}
	filters := []string{"size<=3", "size<=4", "size<=4,height<=2", "size<=5,width<=8"}
	q, err := query.Parse(shapes[rng.Intn(len(shapes))], filters[rng.Intn(len(filters))])
	if err != nil {
		t.Fatal(err)
	}
	x := index.New(d)
	res, err := query.Evaluate(x, q, query.Options{Auto: true, MaxFragments: 200000})
	if err != nil {
		return x, q, core.NewSet()
	}
	return x, q, res.Answers
}

func TestScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	weights := []Weights{DefaultWeights(), {SizeDecay: 0.7, DepthBonus: 0.2, LeafBonus: 3}}
	scored := 0
	for c := 0; c < 150; c++ {
		x, q, answers := randomCase(t, rng)
		terms := rankTerms(q)
		for _, w := range weights {
			r := New(x, terms, w)
			for _, f := range answers.Fragments() {
				got, want := r.Score(f), referenceScore(x, terms, w, f)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d %v: Score(%v) = %v, reference %v", c, terms, f, got, want)
				}
				scored++
			}
			// Rank is the reference order, score bits included.
			got, want := r.Rank(answers), referenceRank(x, terms, w, answers)
			if len(got) != len(want) {
				t.Fatalf("case %d: Rank has %d answers, reference %d", c, len(got), len(want))
			}
			for i := range got {
				if !got[i].Fragment.Equal(want[i].Fragment) || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("case %d rank %d: %v/%v, reference %v/%v", c, i, got[i].Fragment, got[i].Score, want[i].Fragment, want[i].Score)
				}
			}
		}
	}
	if scored < 1000 {
		t.Fatalf("only %d fragments scored; the generator lost its answers", scored)
	}
}

func TestTopMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 30; c++ {
		x, q, answers := randomCase(t, rng)
		r := New(x, rankTerms(q), DefaultWeights())
		all := r.Rank(answers)
		for k := 1; k <= len(all)+1; k++ {
			top := r.Top(answers, k)
			if want := min(k, len(all)); len(top) != want {
				t.Fatalf("case %d: Top(%d) has %d answers, want %d", c, k, len(top), want)
			}
			for i := range top {
				if !top[i].Fragment.Equal(all[i].Fragment) || top[i].Score != all[i].Score {
					t.Fatalf("case %d: Top(%d)[%d] = %v, Rank()[%d] = %v", c, k, i, top[i], i, all[i])
				}
			}
		}
	}
}

// TestScoreDeterministic: a score is the same bits on every call, also
// with many terms (the terms are summed in a fixed order).
func TestScoreDeterministic(t *testing.T) {
	x := index.New(docgen.FigureOne())
	d := x.Document()
	terms := []string{"xquery", "optimization", "query", "xml", "database", "processing", "evaluation", "streaming"}
	r := New(x, terms, DefaultWeights())
	ids := make([]xmltree.NodeID, d.Len())
	for i := range ids {
		ids[i] = xmltree.NodeID(i)
	}
	whole := core.MustFragment(d, ids...)
	first := r.Score(whole)
	if first == 0 {
		t.Fatal("the whole document must score above 0")
	}
	for i := 0; i < 2000; i++ {
		if got := r.Score(whole); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: score %v, first call %v", i, got, first)
		}
	}
}

func TestScoreAllocatesNothing(t *testing.T) {
	x, answers := figure1Answers(t)
	r := New(x, []string{"xquery", "optimization", "xml"}, DefaultWeights())
	frags := answers.Fragments()
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frags {
			r.Score(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Score allocates %v times per call batch, want 0", allocs)
	}
}

// TestTopAllocsFlat: Top(·, k) keeps k answers whatever the answer
// count, so its allocations do not grow with the answers.
func TestTopAllocsFlat(t *testing.T) {
	allocsFor := func(sections int) (float64, int) {
		d, err := docgen.Generate(docgen.Config{
			Seed: 11, Sections: sections, MeanFanout: 3, Depth: 2, VocabSize: 30, ParLength: 4,
			Plant: map[string]int{"alpha": 3 * sections, "beta": 3 * sections},
		})
		if err != nil {
			t.Fatal(err)
		}
		x := index.New(d)
		q := query.MustNew([]string{"alpha", "beta"}, filter.MaxSize(4))
		res, err := query.Evaluate(x, q, query.Options{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		r := New(x, q.Terms, DefaultWeights())
		return testing.AllocsPerRun(20, func() { r.Top(res.Answers, 10) }), res.Answers.Len()
	}
	small, nSmall := allocsFor(4)
	large, nLarge := allocsFor(40)
	if nLarge < 4*nSmall || nSmall < 10 {
		t.Fatalf("answer counts %d and %d do not separate the sizes", nSmall, nLarge)
	}
	if large > small {
		t.Fatalf("Top(·, 10) allocates %v times over %d answers, %v over %d", large, nLarge, small, nSmall)
	}

	// BenchmarkRank's rows, pinned at their count: ranking all of its
	// answers, or keeping the top 10, allocates the result slice once.
	runtime.GC() // the first collection allocates its mark workers
	r, answers := rankInput(t)
	for _, k := range []int{0, 10} {
		if got := testing.AllocsPerRun(20, func() { r.Top(answers, k) }); got != 1 {
			t.Errorf("Top(·, %d) over %d answers allocates %v times, pinned at 1", k, answers.Len(), got)
		}
	}
}

// rankInput is BenchmarkRank's ranker and the answers it ranks.
func rankInput(tb testing.TB) (*Ranker, *core.Set) {
	d, err := docgen.Generate(docgen.Config{
		Seed: 3, Sections: 20, MeanFanout: 3, Depth: 2, VocabSize: 30, ParLength: 4,
		Plant: map[string]int{"alpha": 60, "beta": 60},
	})
	if err != nil {
		tb.Fatal(err)
	}
	x := index.New(d)
	q := query.MustNew([]string{"alpha", "beta"}, filter.MaxSize(4))
	res, err := query.Evaluate(x, q, query.Options{Auto: true})
	if err != nil {
		tb.Fatal(err)
	}
	return New(x, q.Terms, DefaultWeights()), res.Answers
}

var rankSink []Scored

func BenchmarkRank(b *testing.B) {
	r, answers := rankInput(b)
	for _, bc := range []struct {
		name string
		k    int
	}{{"all", 0}, {"top10", 10}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rankSink = r.Top(answers, bc.k)
			}
			b.ReportMetric(float64(answers.Len()), "answers/op")
		})
	}
}

// TestCollectorMatchesTop: a Collector offered the answers one at a
// time, each through a buffer that is overwritten by the next, keeps
// exactly Top(answers, k) — at every k, in any offer order, with and
// without a size hint smaller than the answers.
func TestCollectorMatchesTop(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for c := 0; c < 30; c++ {
		x, q, answers := randomCase(t, rng)
		r := New(x, rankTerms(q), DefaultWeights())
		frags := append([]core.Fragment(nil), answers.Fragments()...)
		for k := 0; k <= len(frags)+1; k++ {
			want := r.Top(answers, k)
			for _, maxSize := range []int{0, 1, 8} {
				rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
				col := r.Collect(k, maxSize)
				var buf []xmltree.NodeID
				for _, f := range frags {
					var transient core.Fragment
					transient, buf = f.CopyTo(buf[:0])
					col.Offer(transient)
					for i := range buf {
						buf[i] = -1
					}
				}
				got := col.Sorted()
				if len(got) != len(want) {
					t.Fatalf("case %d, k=%d, maxSize %d: kept %d answers, Top %d", c, k, maxSize, len(got), len(want))
				}
				for i := range got {
					if !got[i].Fragment.Equal(want[i].Fragment) || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("case %d, k=%d, maxSize %d: [%d] = %v, Top has %v", c, k, maxSize, i, got[i], want[i])
					}
				}
			}
		}
	}
}
