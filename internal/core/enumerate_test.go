package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/docgen"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// pushDownAnswers is the reference EnumerateAnswers must reproduce:
// the filtered fixed point of every group's node fragments, folded by
// filtered pairwise joins (Section 4.3).
func pushDownAnswers(t testing.TB, d *xmltree.Document, groups [][]xmltree.NodeID, sel Selection) *Set {
	t.Helper()
	var acc *Set
	for _, g := range groups {
		fp, err := FilteredFixedPointBounded(bg, nil, NodeFragments(d, g), sel, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = fp
			continue
		}
		if acc, err = PairwiseJoinBounded(bg, nil, acc, fp, sel, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestEnumerateAnswersFigureOne checks Table 1's query under every
// size limit: the enumerator returns push-down's answers, counts
// partial subtrees instead of joins, and builds every answer valid.
func TestEnumerateAnswersFigureOne(t *testing.T) {
	d := docgen.FigureOne()
	groups := [][]xmltree.NodeID{d.NodesWithKeyword("xquery"), d.NodesWithKeyword("optimization")}
	for size := 1; size <= 6; size++ {
		sel := Selection{Bounds: Bounds{Size: size}}
		var c obs.EvalCounters
		got, err := EnumerateAnswers(bg, &c, d, groups, sel, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if want := pushDownAnswers(t, d, groups, sel); !got.Equal(want) {
			t.Fatalf("size<=%d: enumerated %v, push-down %v", size, got, want)
		}
		for _, f := range got.Fragments() {
			checkValidFragment(t, f)
		}
		s := c.Snapshot()
		if s.Joins != 0 || s.EnumNodes == 0 || s.EnumPrunes > s.EnumNodes {
			t.Fatalf("size<=%d: joins=%d enum nodes=%d enum prunes=%d", size, s.Joins, s.EnumNodes, s.EnumPrunes)
		}
	}
	got, err := EnumerateAnswers(bg, nil, d, groups, Selection{Bounds: Bounds{Size: 3}}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("size<=3: %d answers, want Table 1's 4", got.Len())
	}
}

// TestEnumerateAnswersKeep checks a pushed Keep clause on random trees
// against push-down: an anti-monotonic predicate (at most two leaves)
// may prune partial subtrees, never an answer.
func TestEnumerateAnswersKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	twoLeaves := func(f Fragment) bool { return len(f.Leaves()) <= 2 }
	pruned := uint64(0)
	for i := 0; i < 60; i++ {
		d := buildRandomDoc(t, rng, 4+rng.Intn(20))
		groups := make([][]xmltree.NodeID, 2+rng.Intn(2))
		for g := range groups {
			for id := 0; id < d.Len(); id++ {
				if rng.Intn(3) == 0 {
					groups[g] = append(groups[g], xmltree.NodeID(id))
				}
			}
		}
		sel := Selection{Bounds: Bounds{Size: 2 + rng.Intn(5)}, Keep: twoLeaves}
		var c obs.EvalCounters
		got, err := EnumerateAnswers(bg, &c, d, groups, sel, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if want := pushDownAnswers(t, d, groups, sel); !got.Equal(want) {
			t.Fatalf("tree %d: enumerated %v, push-down %v", i, got, want)
		}
		pruned += c.Snapshot().EnumPrunes
	}
	if pruned == 0 {
		t.Fatal("no partial subtree was pruned; the test checks nothing")
	}
}

// TestEnumerateAnswersLimits checks the budget, cancellation and the
// group-count limit.
func TestEnumerateAnswersLimits(t *testing.T) {
	d := docgen.FigureOne()
	groups := [][]xmltree.NodeID{d.NodesWithKeyword("xquery"), d.NodesWithKeyword("optimization")}
	if _, err := EnumerateAnswers(bg, nil, d, groups, Selection{}, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget 3: err = %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	big := buildRandomDoc(t, rng, 400)
	all := make([]xmltree.NodeID, big.Len())
	for i := range all {
		all[i] = xmltree.NodeID(i)
	}
	if _, err := EnumerateAnswers(ctx, nil, big, [][]xmltree.NodeID{all}, Selection{Bounds: Bounds{Size: 4}}, 1<<30); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}
	if _, err := EnumerateAnswers(bg, nil, d, make([][]xmltree.NodeID, MaxEnumerateGroups+1), Selection{}, 1<<20); err == nil {
		t.Fatalf("%d groups accepted", MaxEnumerateGroups+1)
	}
}

// sectionsDoc builds a document of pad keyword-free filler nodes and
// sections sections, each holding one alpha and one beta paragraph.
func sectionsDoc(pad, sections int) (*xmltree.Document, [][]xmltree.NodeID) {
	b := xmltree.NewBuilder("sections", "doc", "")
	for i := 0; i < pad; i++ {
		b.AddNode(0, "pad", "")
	}
	groups := make([][]xmltree.NodeID, 2)
	for i := 0; i < sections; i++ {
		s := b.AddNode(0, "sec", "")
		groups[0] = append(groups[0], b.AddNode(s, "par", "alpha"))
		groups[1] = append(groups[1], b.AddNode(s, "par", "beta"))
	}
	return b.Build(), groups
}

// TestEnumerateAllocs pins the allocation diet: the enumerator visits
// only the witnesses' ancestors and keeps every partial subtree in one
// reused arena, so its allocations do not grow with the document's
// nodes at all, and grow with the answers only through amortized
// doubling — far fewer than one per answer.
func TestEnumerateAllocs(t *testing.T) {
	sel := Selection{Bounds: Bounds{Size: 3}}
	allocs := func(pad, sections int) (float64, int) {
		d, groups := sectionsDoc(pad, sections)
		out, err := EnumerateAnswers(bg, nil, d, groups, sel, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := EnumerateAnswers(bg, nil, d, groups, sel, 1<<20); err != nil {
				t.Fatal(err)
			}
		}), out.Len()
	}
	small, n := allocs(10, 16)
	if n != 16 {
		t.Fatalf("%d answers, want one per section", n)
	}
	if padded, _ := allocs(20000, 16); padded != small {
		t.Fatalf("%.0f allocations with 20000 filler nodes, %.0f with 10: allocations track document nodes", padded, small)
	}
	large, m := allocs(10, 1024)
	if grown := large - small; grown > float64(m-n)/16 {
		t.Fatalf("%.0f more allocations for %d more answers, want at most one per 16", grown, m-n)
	}
	t.Logf("%.0f allocations for %d answers, %.0f for %d", small, n, large, m)
}

// BenchmarkEnumerateAnswers runs the enumerator on the inputs of
// BenchmarkFilteredFixedPoint/opaque — the roots of its 64 seed
// fragments as one group, under size ≤ 8 — so the two rows compare
// the push-down closure with the enumeration it replaces under auto.
func BenchmarkEnumerateAnswers(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(8))
	f := randomSet(b, rng, d, 64, 2)
	roots := make([]xmltree.NodeID, 0, f.Len())
	for _, fr := range f.Fragments() {
		roots = append(roots, fr.Root())
	}
	groups := [][]xmltree.NodeID{roots}
	sel := Selection{Bounds: Bounds{Size: 8}}
	var c obs.EvalCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateAnswers(bg, &c, d, groups, sel, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Snapshot().EnumNodes)/float64(b.N), "enum-nodes/op")
}

// BenchmarkEnumerateEach is BenchmarkEnumerateAnswers through the
// visitor: the answers are counted as they stream out and no set is
// built, which is how the search path consumes them.
func BenchmarkEnumerateEach(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(8))
	f := randomSet(b, rng, d, 64, 2)
	roots := make([]xmltree.NodeID, 0, f.Len())
	for _, fr := range f.Fragments() {
		roots = append(roots, fr.Root())
	}
	groups := [][]xmltree.NodeID{roots}
	sel := Selection{Bounds: Bounds{Size: 8}}
	var c obs.EvalCounters
	answers := 0
	count := func(Fragment) error { answers++; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EnumerateEach(bg, &c, d, groups, sel, 1<<30, count); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Snapshot().EnumNodes)/float64(b.N), "enum-nodes/op")
}
