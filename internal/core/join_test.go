package core

import (
	"math/rand"
	"testing"

	"repro/internal/docgen"
	"repro/internal/xmltree"
)

// TestJoinFigure3 reproduces the paper's Figure 3(b):
// ⟨n4,n5⟩ ⋈ ⟨n7,n9⟩ = ⟨n3,n4,n5,n6,n7,n9⟩ on the Figure 3(a) tree.
func TestJoinFigure3(t *testing.T) {
	d := docgen.FigureThree()
	f1 := MustFragment(d, 4, 5)
	f2 := MustFragment(d, 7, 9)
	got := Join(f1, f2)
	want := MustFragment(d, 3, 4, 5, 6, 7, 9)
	if !got.Equal(want) {
		t.Fatalf("⟨n4,n5⟩⋈⟨n7,n9⟩ = %v, want %v", got, want)
	}
	checkValidFragment(t, got)
	// n8 (sibling of n9) must be excluded: the join is minimal.
	if got.Contains(8) {
		t.Fatal("join must not contain n8")
	}
}

// TestJoinTable1Pairs checks every two-way join the paper's Table 1
// and Section 4.3 spell out on the Figure 1 document.
func TestJoinTable1Pairs(t *testing.T) {
	d := docgen.FigureOne()
	f := func(ids ...int) Fragment { return MustFragment(d, mustIDs(ids...)...) }
	tests := []struct {
		name       string
		a, b, want Fragment
	}{
		{"f17⋈f18", f(17), f(18), f(16, 17, 18)},
		{"f16⋈f17", f(16), f(17), f(16, 17)},
		{"f16⋈f18", f(16), f(18), f(16, 18)},
		{"f17⋈f81", f(17), f(81), f(0, 1, 14, 16, 17, 79, 80, 81)},
		{"f18⋈f81", f(18), f(81), f(0, 1, 14, 16, 18, 79, 80, 81)},
		{"f16⋈f81 (§4.3)", f(16), f(81), f(0, 1, 14, 16, 79, 80, 81)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Join(tc.a, tc.b)
			if !got.Equal(tc.want) {
				t.Fatalf("%s = %v, want %v", tc.name, got, tc.want)
			}
		})
	}
}

// TestJoinAllTable1Triples checks the three-way joins of Table 1.
func TestJoinAllTable1Triples(t *testing.T) {
	d := docgen.FigureOne()
	f := func(ids ...int) Fragment { return MustFragment(d, mustIDs(ids...)...) }
	tests := []struct {
		name   string
		inputs []Fragment
		want   Fragment
	}{
		{"f17⋈f18⋈f81", []Fragment{f(17), f(18), f(81)}, f(0, 1, 14, 16, 17, 18, 79, 80, 81)},
		{"f16⋈f17⋈f18", []Fragment{f(16), f(17), f(18)}, f(16, 17, 18)},
		{"f16⋈f17⋈f81", []Fragment{f(16), f(17), f(81)}, f(0, 1, 14, 16, 17, 79, 80, 81)},
		{"f16⋈f18⋈f81", []Fragment{f(16), f(18), f(81)}, f(0, 1, 14, 16, 18, 79, 80, 81)},
		{"all four", []Fragment{f(16), f(17), f(18), f(81)}, f(0, 1, 14, 16, 17, 18, 79, 80, 81)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := JoinAll(tc.inputs)
			if !got.Equal(tc.want) {
				t.Fatalf("%s = %v, want %v", tc.name, got, tc.want)
			}
		})
	}
}

func TestJoinIdempotent(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, 16, 17, 18)
	if got := Join(f, f); !got.Equal(f) {
		t.Fatalf("f⋈f = %v, want %v", got, f)
	}
}

func TestJoinCommutative(t *testing.T) {
	d := docgen.FigureOne()
	a := MustFragment(d, 17)
	b := MustFragment(d, 81)
	if !Join(a, b).Equal(Join(b, a)) {
		t.Fatal("join must be commutative")
	}
}

func TestJoinAssociative(t *testing.T) {
	d := docgen.FigureOne()
	a := MustFragment(d, 17)
	b := MustFragment(d, 18)
	c := MustFragment(d, 81)
	left := Join(Join(a, b), c)
	right := Join(a, Join(b, c))
	if !left.Equal(right) {
		t.Fatalf("(a⋈b)⋈c = %v != a⋈(b⋈c) = %v", left, right)
	}
}

func TestJoinAbsorption(t *testing.T) {
	d := docgen.FigureOne()
	big := MustFragment(d, 16, 17, 18)
	sub := MustFragment(d, 17)
	if got := Join(big, sub); !got.Equal(big) {
		t.Fatalf("f1⋈(f2⊆f1) = %v, want %v", got, big)
	}
	if got := Join(sub, big); !got.Equal(big) {
		t.Fatalf("absorption must hold in both operand orders")
	}
}

// TestJoinMinimality verifies Definition 4's condition 3 directly on
// random inputs: no proper sub-fragment of the join contains both
// operands. It suffices to check that removing any single leaf of the
// join breaks containment, because minimal counterexamples shrink to
// that case.
func TestJoinMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := buildRandomDoc(t, rng, 120)
	for i := 0; i < 200; i++ {
		f1 := randomFragment(t, rng, d, 1+rng.Intn(5))
		f2 := randomFragment(t, rng, d, 1+rng.Intn(5))
		j := Join(f1, f2)
		checkValidFragment(t, j)
		if !f1.SubsetOf(j) || !f2.SubsetOf(j) {
			t.Fatalf("join %v must contain both %v and %v", j, f1, f2)
		}
		for _, leaf := range j.Leaves() {
			if f1.Contains(leaf) || f2.Contains(leaf) {
				continue
			}
			// A leaf in neither operand contradicts minimality: the
			// fragment without it still contains f1 and f2 and is
			// still connected.
			t.Fatalf("join %v of %v and %v has extraneous leaf %v", j, f1, f2, leaf)
		}
	}
}

// TestJoinEqualsBFSMinimalSubtree cross-checks Join against an
// independent oracle: breadth-first expansion of the union until
// connected, then pruning of non-essential leaves.
func TestJoinEqualsBFSMinimalSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := buildRandomDoc(t, rng, 80)
	for i := 0; i < 150; i++ {
		f1 := randomFragment(t, rng, d, 1+rng.Intn(6))
		f2 := randomFragment(t, rng, d, 1+rng.Intn(6))
		want := oracleMinimalSubtree(d, f1, f2)
		got := Join(f1, f2)
		if !got.Equal(want) {
			t.Fatalf("Join(%v,%v) = %v, oracle = %v", f1, f2, got, want)
		}
	}
}

// oracleMinimalSubtree computes the minimal connected subtree
// containing both fragments by the textbook method: union all
// root-paths, then iteratively strip leaves not in f1 ∪ f2.
func oracleMinimalSubtree(d *xmltree.Document, f1, f2 Fragment) Fragment {
	need := make(map[xmltree.NodeID]bool)
	for _, id := range f1.IDs() {
		need[id] = true
	}
	for _, id := range f2.IDs() {
		need[id] = true
	}
	// All nodes on paths from every needed node to the root.
	inTree := make(map[xmltree.NodeID]bool)
	for id := range need {
		for v := id; v != xmltree.InvalidNode; v = d.Parent(v) {
			inTree[v] = true
		}
	}
	// Iteratively remove removable nodes: not needed, and with no
	// children in the tree (leaves), or a root with exactly one child
	// (chain head above the real subtree).
	for changed := true; changed; {
		changed = false
		childCount := make(map[xmltree.NodeID]int)
		for v := range inTree {
			if p := d.Parent(v); p != xmltree.InvalidNode && inTree[p] {
				childCount[p]++
			}
		}
		for v := range inTree {
			if need[v] {
				continue
			}
			isLeaf := childCount[v] == 0
			p := d.Parent(v)
			isChainRoot := (p == xmltree.InvalidNode || !inTree[p]) && childCount[v] == 1
			if isLeaf || isChainRoot {
				delete(inTree, v)
				changed = true
			}
		}
	}
	ids := make([]xmltree.NodeID, 0, len(inTree))
	for v := range inTree {
		ids = append(ids, v)
	}
	f, err := NewFragment(d, ids)
	if err != nil {
		panic(err)
	}
	return f
}

func TestJoinPanicsAcrossDocuments(t *testing.T) {
	d1 := docgen.FigureThree()
	d2 := docgen.FigureThree()
	defer func() {
		if recover() == nil {
			t.Fatal("Join across documents should panic")
		}
	}()
	Join(MustFragment(d1, 3), MustFragment(d2, 3))
}
