package filter

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/xmltree"
)

func frag(t testing.TB, d *xmltree.Document, ids ...xmltree.NodeID) core.Fragment {
	t.Helper()
	f, err := core.NewFragment(d, ids)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMaxSize(t *testing.T) {
	d := docgen.FigureOne()
	f3 := frag(t, d, 16, 17, 18)
	f8 := frag(t, d, 0, 1, 14, 16, 17, 79, 80, 81)
	p := MaxSize(3)
	if !p.AntiMonotonic {
		t.Fatal("size<=β must be anti-monotonic")
	}
	if !p.Apply(f3) {
		t.Error("⟨n16,n17,n18⟩ passes size<=3")
	}
	if p.Apply(f8) {
		t.Error("8-node fragment fails size<=3")
	}
	if p.Name != "size<=3" {
		t.Errorf("Name = %q", p.Name)
	}
}

func TestMaxHeightFigure6(t *testing.T) {
	d := docgen.FigureOne()
	p := MaxHeight(2)
	if !p.AntiMonotonic {
		t.Fatal("height<=h must be anti-monotonic")
	}
	// ⟨n16,n17⟩: height 1 → pass; a root-to-n17 chain: height 4 → fail.
	if !p.Apply(frag(t, d, 16, 17)) {
		t.Error("height-1 fragment passes height<=2")
	}
	if p.Apply(frag(t, d, 0, 1, 14, 16, 17)) {
		t.Error("height-4 chain fails height<=2")
	}
}

func TestMaxWidthAndDepth(t *testing.T) {
	d := docgen.FigureOne()
	if !MaxWidth(2).Apply(frag(t, d, 16, 17, 18)) {
		t.Error("span-2 fragment passes width<=2")
	}
	if MaxWidth(10).Apply(frag(t, d, 0, 1, 14, 16, 79, 80, 81)) {
		t.Error("span-81 fragment fails width<=10")
	}
	if !MaxDepth(4).Apply(frag(t, d, 16, 17, 18)) {
		t.Error("depth-4 fragment passes depth<=4")
	}
	if MaxDepth(3).Apply(frag(t, d, 16, 17, 18)) {
		t.Error("depth-4 fragment fails depth<=3")
	}
}

func TestHasKeywordFilter(t *testing.T) {
	d := docgen.FigureOne()
	p := HasKeyword("optimization")
	if p.AntiMonotonic {
		t.Fatal("keyword filter must NOT be anti-monotonic")
	}
	if !p.Apply(frag(t, d, 16, 17, 18)) {
		t.Error("fragment containing n16 has optimization")
	}
	if p.Apply(frag(t, d, 2)) {
		t.Error("n2 has no optimization")
	}
}

func TestMinSizeNotAntiMonotonic(t *testing.T) {
	d := docgen.FigureOne()
	p := MinSize(2)
	if p.AntiMonotonic {
		t.Fatal("size>β is the paper's non-anti-monotonic example")
	}
	big := frag(t, d, 16, 17, 18)
	sub := frag(t, d, 17)
	// The defining counterexample: P(big) true but P(sub) false.
	if !p.Apply(big) || p.Apply(sub) {
		t.Fatal("expected P(f)=true with P(f')=false for f'⊆f")
	}
}

// TestEqualDepthFigure7 reproduces Figure 7: a fragment f satisfying
// the equal-depth filter with a sub-fragment f' that does not.
func TestEqualDepthFigure7(t *testing.T) {
	// Tree: root with two subtrees; k1 and k2 appear at equal depth in
	// f, but dropping one branch breaks the balance.
	b := xmltree.NewBuilder("fig7", "root", "")
	l := b.AddNode(0, "left", "")   // n1
	b.AddNode(l, "p", "k1words")    // n2 (depth 2, k1)
	r := b.AddNode(0, "right", "")  // n3
	b.AddNode(r, "p", "k2words")    // n4 (depth 2, k2)
	b.AddNode(0, "deep", "k2words") // n5 (depth 1, k2)
	d := b.Build()

	p := EqualDepth("k1words", "k2words")
	if p.AntiMonotonic {
		t.Fatal("equal-depth filter must not be anti-monotonic")
	}
	f := frag(t, d, 0, 1, 2, 3, 4) // k1 at depth 2 (n2), k2 at depth 2 (n4)
	fPrime := frag(t, d, 0, 1, 2, 5)
	if !p.Apply(f) {
		t.Fatal("f has k1 and k2 at equal depths; filter must pass")
	}
	if p.Apply(fPrime) {
		t.Fatal("f' has k1 at depth 2 and k2 at depth 1; filter must fail")
	}
	if !fPrime.SubsetOf(frag(t, d, 0, 1, 2, 3, 4, 5)) {
		t.Fatal("test setup: f' must be a sub-fragment of the full tree")
	}
}

func TestAndOrComposition(t *testing.T) {
	a := MaxSize(3)
	b := MaxHeight(2)
	k := HasKeyword("x")
	and := And(a, b)
	if !and.AntiMonotonic {
		t.Error("conjunction of anti-monotonic filters is anti-monotonic")
	}
	if And(a, k).AntiMonotonic {
		t.Error("conjunction with a non-anti-monotonic filter is not")
	}
	or := Or(a, b)
	if !or.AntiMonotonic {
		t.Error("disjunction of anti-monotonic filters is anti-monotonic")
	}
	if Or(a, k).AntiMonotonic {
		t.Error("disjunction with a non-anti-monotonic filter is not")
	}
	if Not(a).AntiMonotonic {
		t.Error("negation never preserves anti-monotonicity")
	}
}

func TestAndOrSemantics(t *testing.T) {
	d := docgen.FigureOne()
	f := frag(t, d, 16, 17, 18) // size 3, height 1
	and := And(MaxSize(3), MaxHeight(0))
	if and.Apply(f) {
		t.Error("AND must fail when one conjunct fails")
	}
	or := Or(MaxSize(1), MaxHeight(2))
	if !or.Apply(f) {
		t.Error("OR must pass when one disjunct passes")
	}
	if !Not(MaxSize(1)).Apply(f) {
		t.Error("NOT size<=1 must pass a 3-node fragment")
	}
	if got := And().Apply(f); !got {
		t.Error("empty AND is accept-all")
	}
	if got := Or().Apply(f); got {
		t.Error("empty OR is reject-all")
	}
}

func TestZeroFilterAcceptsAll(t *testing.T) {
	d := docgen.FigureOne()
	var zero Filter
	if !zero.Apply(frag(t, d, 0)) {
		t.Error("zero filter must accept")
	}
	if !zero.IsZero() {
		t.Error("IsZero on zero filter")
	}
	if zero.String() != "true" {
		t.Errorf("String = %q", zero.String())
	}
}

// TestAntiMonotonicityHolds property-checks Definition 11 for every
// filter the package declares anti-monotonic: if P(f) then P(f') for
// random sub-fragments f' ⊆ f.
func TestAntiMonotonicityHolds(t *testing.T) {
	d := docgen.FigureOne()
	rng := rand.New(rand.NewSource(5))
	filters := []Filter{
		MaxSize(2), MaxSize(5), MaxHeight(1), MaxHeight(3),
		MaxWidth(4), MaxWidth(20), MaxDepth(2), MaxDepth(4),
		MaxLeaves(1), MaxLeaves(2), MaxLeaves(4),
		And(MaxSize(5), MaxHeight(2)), Or(MaxSize(2), MaxWidth(4)),
		True(),
	}
	for trial := 0; trial < 300; trial++ {
		f := randomFragment(t, rng, d)
		sub := randomSubFragment(t, rng, f)
		for _, p := range filters {
			if !p.AntiMonotonic {
				t.Fatalf("%s should be anti-monotonic", p)
			}
			if p.Apply(f) && !p.Apply(sub) {
				t.Fatalf("%s violated anti-monotonicity: P(%v)=true, P(%v)=false", p, f, sub)
			}
		}
	}
}

// randomFragment grows a connected fragment from a random start node.
func randomFragment(t testing.TB, rng *rand.Rand, d *xmltree.Document) core.Fragment {
	t.Helper()
	start := xmltree.NodeID(rng.Intn(d.Len()))
	member := map[xmltree.NodeID]bool{start: true}
	ids := []xmltree.NodeID{start}
	for len(ids) < 1+rng.Intn(8) {
		seed := ids[rng.Intn(len(ids))]
		var cands []xmltree.NodeID
		if p := d.Parent(seed); p != xmltree.InvalidNode && !member[p] {
			cands = append(cands, p)
		}
		for _, c := range d.Children(seed) {
			if !member[c] {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		member[pick] = true
		ids = append(ids, pick)
	}
	return frag(t, d, ids...)
}

// randomSubFragment returns a random connected sub-fragment of f by
// repeatedly deleting fragment leaves.
func randomSubFragment(t testing.TB, rng *rand.Rand, f core.Fragment) core.Fragment {
	t.Helper()
	ids := append([]xmltree.NodeID(nil), f.IDs()...)
	d := f.Document()
	drops := rng.Intn(len(ids))
	for i := 0; i < drops && len(ids) > 1; i++ {
		cur, err := core.NewFragment(d, ids)
		if err != nil {
			t.Fatal(err)
		}
		leaves := cur.Leaves()
		drop := leaves[rng.Intn(len(leaves))]
		next := ids[:0]
		for _, id := range ids {
			if id != drop {
				next = append(next, id)
			}
		}
		ids = next
	}
	return frag(t, d, ids...)
}

// TestLeafWitness checks the strict Definition 8 condition against
// Table 1's row 3, which the paper's operational semantics keeps but
// the strict reading rejects.
func TestLeafWitness(t *testing.T) {
	d := docgen.FigureOne()
	p := LeafWitness("xquery", "optimization")
	if p.AntiMonotonic {
		t.Fatal("leaf-witness must not claim anti-monotonicity")
	}
	target := frag(t, d, 16, 17, 18)
	if !p.Apply(target) {
		t.Fatal("target fragment carries both terms on leaves")
	}
	row3 := frag(t, d, 16, 18)
	if p.Apply(row3) {
		t.Fatal("⟨n16,n18⟩ must fail the strict leaf condition")
	}
	single := frag(t, d, 17)
	if !p.Apply(single) {
		t.Fatal("⟨n17⟩ is its own leaf with both terms")
	}
}

func TestLeafWitnessParse(t *testing.T) {
	p, err := Parse("leafwitness=xquery:optimization")
	if err != nil {
		t.Fatal(err)
	}
	d := docgen.FigureOne()
	if p.Apply(frag(t, d, 16, 18)) {
		t.Fatal("parsed leafwitness must reject ⟨n16,n18⟩")
	}
	if _, err := Parse("leafwitness=a::b"); err == nil {
		t.Fatal("empty term in leafwitness must error")
	}
}

func TestMaxLeaves(t *testing.T) {
	d := docgen.FigureOne()
	p := MaxLeaves(2)
	if !p.AntiMonotonic {
		t.Fatal("leaves<=n must be anti-monotonic")
	}
	if !p.Apply(frag(t, d, 16, 17, 18)) { // leaves: n17, n18
		t.Fatal("two-leaf fragment passes leaves<=2")
	}
	if !p.Apply(frag(t, d, 0, 1, 14)) { // chain: one leaf
		t.Fatal("chain passes leaves<=2")
	}
	// n1 with three subsection children: 3 leaves.
	if p.Apply(frag(t, d, 1, 3, 14, 19)) {
		t.Fatal("three-leaf fragment fails leaves<=2")
	}
	parsed, err := Parse("leaves<=2")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.AntiMonotonic || parsed.Name != "leaves<=2" {
		t.Fatalf("parsed = %+v", parsed)
	}
}

// TestBoundsOf checks the clause → Bounds extraction the posting
// pre-filter and the join kernel both read: the tightest positive
// limit per dimension, nothing from non-structural clauses, and
// nothing from a limit below 1 — Bounds reads 0 as unbounded, so such
// a clause must neither appear nor erase a tighter limit of its
// dimension (it stays with the predicate).
func TestBoundsOf(t *testing.T) {
	cases := []struct {
		name    string
		clauses []Filter
		want    core.Bounds
	}{
		{"none", nil, core.Bounds{}},
		{"tightest wins", []Filter{MaxSize(5), MaxSize(3), MaxHeight(2)}, core.Bounds{Size: 3, Height: 2}},
		{"all four", []Filter{MaxSize(4), MaxHeight(2), MaxDepth(6), MaxWidth(9)}, core.Bounds{Size: 4, Height: 2, Depth: 6, Width: 9}},
		{"non-structural ignored", []Filter{MaxLeaves(2), HasKeyword("x"), MaxSize(3)}, core.Bounds{Size: 3}},
		{"zero limit does not erase", []Filter{MaxSize(3), MaxSize(0), MaxHeight(0)}, core.Bounds{Size: 3}},
		{"negative limit ignored", []Filter{MaxWidth(-1), MaxWidth(7)}, core.Bounds{Width: 7}},
	}
	for _, tc := range cases {
		if got := BoundsOf(tc.clauses...); got != tc.want {
			t.Errorf("%s: BoundsOf = %+v, want %+v", tc.name, got, tc.want)
		}
		// InBounds names exactly the clauses a Bounds carries.
		for _, f := range tc.clauses {
			if want := BoundsOf(f) != (core.Bounds{}); f.InBounds() != want {
				t.Errorf("%s: %s.InBounds() = %v, want %v", tc.name, f, f.InBounds(), want)
			}
		}
	}
}
