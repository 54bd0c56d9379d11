package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/docgen"
	"repro/internal/xmltree"
)

// bg is the context the evaluator-form calls below run under.
var bg = context.Background()

// scatteredSet returns n leaf singletons spread across a star — the
// worst case for unfiltered joins (every pair joins through the root,
// every subset yields a distinct fragment).
func scatteredSet(t testing.TB, n int) *Set {
	t.Helper()
	b := xmltree.NewBuilder("star", "root", "")
	mid := make([]xmltree.NodeID, n)
	for i := 0; i < n; i++ {
		m := b.AddNode(0, "mid", "")
		b.AddNode(m, "leaf", "")
		mid[i] = m
	}
	d := b.Build()
	F := NewSet()
	for _, m := range mid {
		// The leaf under each mid node: distinct subtrees.
		F.Add(NodeFragment(d, m+1))
	}
	return F
}

func TestBoundedVariantsAgreeWithUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := buildRandomDoc(t, rng, 60)
	const big = 1 << 20
	for i := 0; i < 15; i++ {
		F := randomSet(t, rng, d, 1+rng.Intn(5), 3)
		G := randomSet(t, rng, d, 1+rng.Intn(5), 3)
		pred := func(f Fragment) bool { return f.Size() <= 4 }

		pj, err := PairwiseJoinBounded(bg, nil, F, G, Selection{}, big)
		if err != nil || !pj.Equal(PairwiseJoin(F, G)) {
			t.Fatalf("PairwiseJoinBounded mismatch (err=%v)", err)
		}
		fp, err := FixedPointBounded(bg, nil, F, big)
		if err != nil || !fp.Equal(FixedPoint(F)) {
			t.Fatalf("FixedPointBounded mismatch (err=%v)", err)
		}
		fpn, err := FixedPointNaiveBounded(bg, nil, F, big)
		if err != nil || !fpn.Equal(FixedPointNaive(F)) {
			t.Fatalf("FixedPointNaiveBounded mismatch (err=%v)", err)
		}
		ffp, err := FilteredFixedPointBounded(bg, nil, F, Selection{Keep: pred}, big)
		if err != nil || !ffp.Equal(FilteredFixedPoint(F, pred)) {
			t.Fatalf("FilteredFixedPointBounded mismatch (err=%v)", err)
		}
		pjf, err := PairwiseJoinBounded(bg, nil, F, G, Selection{Keep: pred}, big)
		if err != nil || !pjf.Equal(PairwiseJoinFiltered(F, G, pred)) {
			t.Fatalf("PairwiseJoinFilteredBounded mismatch (err=%v)", err)
		}
	}
}

func TestBoundedVariantsTrip(t *testing.T) {
	F := scatteredSet(t, 12)
	if _, err := FixedPointNaiveBounded(bg, nil, F, 100); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("naive fixed point must trip: %v", err)
	}
	if _, err := FixedPointBounded(bg, nil, F, 100); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budgeted fixed point must trip: %v", err)
	}
	if _, err := SelfJoinTimesBounded(bg, nil, F, 12, 100); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("self join must trip: %v", err)
	}
	G := FixedPointNaive(NewSet(F.At(0), F.At(1), F.At(2)))
	if _, err := PairwiseJoinBounded(bg, nil, G, FixedPointNaive(F), Selection{}, 50); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("pairwise join must trip: %v", err)
	}
	// An accept-all predicate makes the filtered variants equivalent
	// to the plain ones — they must trip too.
	all := func(Fragment) bool { return true }
	if _, err := FilteredFixedPointBounded(bg, nil, F, Selection{Keep: all}, 100); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("filtered fixed point must trip: %v", err)
	}
	if _, err := PairwiseJoinBounded(bg, nil, G, G, Selection{Keep: all}, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("filtered pairwise join must trip: %v", err)
	}
}

func TestBoundedFilteredSurvivesWithSelectivePredicate(t *testing.T) {
	// The same scattered set that trips unfiltered stays tiny under a
	// selective anti-monotonic filter — the push-down story.
	F := scatteredSet(t, 12)
	pred := func(f Fragment) bool { return f.Size() <= 2 }
	got, err := FilteredFixedPointBounded(bg, nil, F, Selection{Keep: pred}, 100)
	if err != nil {
		t.Fatalf("selective filter must not trip: %v", err)
	}
	// Only the 12 singletons survive (any join of two scattered leaves
	// spans ≥ 5 nodes).
	if got.Len() != 12 {
		t.Fatalf("filtered fixed point = %d fragments, want 12", got.Len())
	}
}

func TestBoundedBudgetEdge(t *testing.T) {
	d := docgen.FigureOne()
	F := NewSet(MustFragment(d, 17), MustFragment(d, 18))
	// F⁺ = 3 fragments; budget exactly 3 must succeed, 2 must trip.
	if _, err := FixedPointNaiveBounded(bg, nil, F, 3); err != nil {
		t.Fatalf("budget == result size must pass: %v", err)
	}
	if _, err := FixedPointNaiveBounded(bg, nil, F, 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget below result size must trip: %v", err)
	}
	// Input already over budget.
	if _, err := SelfJoinTimesBounded(bg, nil, F, 1, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("oversized input must trip immediately")
	}
}

func TestBoundedPanicsOnBadN(t *testing.T) {
	d := docgen.FigureOne()
	F := NewSet(MustFragment(d, 17))
	defer func() {
		if recover() == nil {
			t.Fatal("SelfJoinTimesBounded(…, F, 0, …) should panic")
		}
	}()
	_, _ = SelfJoinTimesBounded(bg, nil, F, 0, 10)
}
