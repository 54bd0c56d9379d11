package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// oracleWords is the vocabulary of the oracle's random documents: few
// enough words that groups share witnesses and phrases occur.
var oracleWords = []string{"alpha", "beta", "gamma", "delta"}

// oracleIndex builds a random tree of n nodes, tagged sec or par, each
// node carrying zero to three words of oracleWords.
func oracleIndex(rng *rand.Rand, n int) *index.Index {
	children := make([][]int, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		children[p] = append(children[p], i)
	}
	text := func() string {
		words := make([]string, rng.Intn(4))
		for i := range words {
			words[i] = oracleWords[rng.Intn(len(oracleWords))]
		}
		return strings.Join(words, " ")
	}
	tag := func() string { return []string{"sec", "par"}[rng.Intn(2)] }
	b := xmltree.NewBuilder("oracle", "sec", text())
	var emit func(logical int, parent xmltree.NodeID)
	emit = func(logical int, parent xmltree.NodeID) {
		for _, c := range children[logical] {
			emit(c, b.AddNode(parent, tag(), text()))
		}
	}
	emit(0, 0)
	return index.New(b.Build())
}

// oracleKeywords draws 2–3 groups, each a term, a disjunction of two
// terms or a two-word phrase.
func oracleKeywords(rng *rand.Rand) string {
	word := func() string { return oracleWords[rng.Intn(len(oracleWords))] }
	groups := make([]string, 2+rng.Intn(2))
	for i := range groups {
		switch rng.Intn(4) {
		case 0:
			groups[i] = word() + "|" + word()
		case 1:
			groups[i] = `"` + word() + " " + word() + `"`
		default:
			groups[i] = word()
		}
	}
	return strings.Join(groups, " ")
}

// TestClosedWitnessSetOracle is the differential test of the answer
// enumerator: on random trees of 3–14 nodes, with 2–3 groups whose
// witnesses overlap (disjunctions and phrases included), under every
// structural bound size/height/depth/width<=k alone and with a
// leaves<=, within= or residual clause, auto — which enumerates the
// closed witness sets — returns exactly the answers of forced
// push-down, of set reduction (nothing pushed, the whole selection
// last) and, where the seed pool is small enough, of the literal
// brute-force powerset join.
func TestClosedWitnessSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	trees := 120
	if testing.Short() {
		trees = 30
	}
	extras := []string{"", ",leaves<=2", ",within=//sec", ",size>1"}
	answers, compared, bruteForce := 0, 0, 0
	for tree := 0; tree < trees; tree++ {
		x := oracleIndex(rng, 3+rng.Intn(12))
		keywords := oracleKeywords(rng)
		for _, kind := range []string{"size", "height", "depth", "width"} {
			for k := 1; k <= 6; k++ {
				extra := extras[rng.Intn(len(extras))]
				spec := fmt.Sprintf("%s<=%d%s", kind, k, extra)
				q, err := Parse(keywords, spec)
				if err != nil {
					t.Fatalf("parse %q / %q: %v", keywords, spec, err)
				}
				got, err := Evaluate(x, q, Options{Auto: true})
				if err != nil {
					t.Fatalf("%s: auto: %v", q, err)
				}
				seeds, witnessed := 0, true
				for _, n := range got.Stats.SeedSizes {
					seeds += n
					witnessed = witnessed && n > 0
				}
				// A group without a witness ends the evaluation before
				// a strategy is chosen.
				if witnessed && got.Stats.Strategy != cost.Enumerate || got.Stats.Joins != 0 {
					t.Fatalf("%s: auto ran %v with %d joins, want enumerate with none", q, got.Stats.Strategy, got.Stats.Joins)
				}
				refs := []cost.Strategy{cost.PushDown, cost.SetReduction}
				if seeds <= 10 {
					refs = append(refs, cost.BruteForce)
					bruteForce++
				}
				for _, s := range refs {
					want, err := Evaluate(x, q, Options{Strategy: s})
					if err != nil {
						t.Fatalf("%s: %v: %v", q, s, err)
					}
					if !got.Answers.Equal(want.Answers) {
						t.Fatalf("%s on %d nodes: auto answers differ from %v\nauto: %v\nwant: %v",
							q, x.Document().Len(), s, got.Answers, want.Answers)
					}
				}
				answers += got.Answers.Len()
				compared++
			}
		}
	}
	if answers == 0 || bruteForce == 0 {
		t.Fatalf("%d evaluations compared %d answers (%d against brute force); the oracle checks nothing", compared, answers, bruteForce)
	}
	t.Logf("%d evaluations, %d answers, %d also against brute force", compared, answers, bruteForce)
}

// TestEnumerateOverMaxGroupsPushesDown checks the enumerator's input
// limit: a query with more groups than a partial's mask holds keeps
// the push-down loop under auto, with the same answers.
func TestEnumerateOverMaxGroupsPushesDown(t *testing.T) {
	terms := make([]string, core.MaxEnumerateGroups+1)
	for i := range terms {
		terms[i] = fmt.Sprintf("w%d", i)
	}
	b := xmltree.NewBuilder("wide", "doc", "")
	sec := b.AddNode(0, "sec", strings.Join(terms, " "))
	b.AddNode(sec, "par", strings.Join(terms, " "))
	x := index.New(b.Build())
	for _, n := range []int{core.MaxEnumerateGroups, core.MaxEnumerateGroups + 1} {
		q, err := Parse(strings.Join(terms[:n], " "), "size<=2")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(x, q, Options{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		want := cost.Enumerate
		if n > core.MaxEnumerateGroups {
			want = cost.PushDown
		}
		if got.Stats.Strategy != want {
			t.Fatalf("%d groups: auto ran %v, want %v", n, got.Stats.Strategy, want)
		}
		ref, err := Evaluate(x, q, Options{Strategy: cost.PushDown})
		if err != nil {
			t.Fatal(err)
		}
		if got.Answers.Len() != 3 || !got.Answers.Equal(ref.Answers) {
			t.Fatalf("%d groups: auto answers %v, push-down %v, want the 3 fragments of sec and par", n, got.Answers, ref.Answers)
		}
	}
}

// FuzzQueryAuto parses arbitrary keyword and filter strings with Parse
// (which must error, never panic) and requires auto to answer exactly
// as forced push-down on Figure 1. Both run under a small fragment
// budget and a deadline; a query that stops either one is skipped, since
// the two strategies meet their limits at different points.
func FuzzQueryAuto(f *testing.F) {
	for _, seed := range [][2]string{
		{"XQuery optimization", "size<=3"},
		{"xquery optimization|rewriting", "size<=4,height<=2"},
		{`xquery "rewriting rules"|optimization`, "size<=3"},
		{"query evaluation", "leaves<=2,depth<=6"},
		{"xquery plans", "within=//section,width<=20"},
		{"optimization", "size>1,size<=5"},
		{"XQuery optimization", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	x := index.New(docgen.FigureOne())
	f.Fuzz(func(t *testing.T, keywords, spec string) {
		q, err := Parse(keywords, spec)
		if err != nil {
			return
		}
		run := func(opts Options) (Result, bool) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			opts.MaxFragments = 5000
			res, err := EvaluateContext(ctx, x, q, opts)
			if _, stopped := IsCanceled(err); stopped || errors.Is(err, core.ErrBudgetExceeded) {
				return Result{}, false
			}
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return res, true
		}
		got, ok := run(Options{Auto: true})
		if !ok {
			return
		}
		want, ok := run(Options{Strategy: cost.PushDown})
		if !ok {
			return
		}
		if !got.Answers.Equal(want.Answers) {
			t.Fatalf("%s: auto (%v) answers %v, push-down %v", q, got.Stats.Strategy, got.Answers, want.Answers)
		}
	})
}
