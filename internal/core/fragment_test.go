package core

import (
	"strings"
	"testing"

	"repro/internal/docgen"
	"repro/internal/xmltree"
)

func TestNewFragmentValidation(t *testing.T) {
	d := docgen.FigureThree()
	tests := []struct {
		name    string
		ids     []xmltree.NodeID
		wantErr bool
	}{
		{"single node", mustIDs(4), false},
		{"root only", mustIDs(0), false},
		{"connected pair", mustIDs(4, 5), false},
		{"connected chain", mustIDs(3, 6, 7, 9), false},
		{"whole document", mustIDs(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), false},
		{"empty", nil, true},
		{"disconnected pair", mustIDs(4, 7), true},
		{"disconnected missing middle", mustIDs(3, 7), true},
		{"duplicate node", mustIDs(4, 4), true},
		{"out of range", mustIDs(99), true},
		{"negative", []xmltree.NodeID{-1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFragment(d, tc.ids)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewFragment(%v) succeeded, want error", tc.ids)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewFragment(%v): %v", tc.ids, err)
			}
			checkValidFragment(t, f)
		})
	}
}

func TestFragmentSortsInput(t *testing.T) {
	d := docgen.FigureThree()
	f := MustFragment(d, 5, 3, 4)
	if got := f.IDs(); got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("IDs not sorted: %v", got)
	}
	if f.Root() != 3 {
		t.Fatalf("Root = %v, want n3", f.Root())
	}
}

func TestFragmentRootIsShallowest(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, 16, 17, 18)
	if f.Root() != 16 {
		t.Fatalf("Root = %v, want n16", f.Root())
	}
	if f.Size() != 3 {
		t.Fatalf("Size = %d, want 3", f.Size())
	}
}

func TestFragmentContains(t *testing.T) {
	d := docgen.FigureThree()
	f := MustFragment(d, 3, 4, 5)
	for _, id := range mustIDs(3, 4, 5) {
		if !f.Contains(id) {
			t.Errorf("Contains(%v) = false, want true", id)
		}
	}
	for _, id := range mustIDs(0, 2, 6, 9) {
		if f.Contains(id) {
			t.Errorf("Contains(%v) = true, want false", id)
		}
	}
}

func TestFragmentSubsetOf(t *testing.T) {
	d := docgen.FigureThree()
	small := MustFragment(d, 4, 5)
	big := MustFragment(d, 3, 4, 5, 6)
	other := MustFragment(d, 6, 7)
	if !small.SubsetOf(big) {
		t.Error("⟨n4,n5⟩ ⊆ ⟨n3..n6⟩ should hold")
	}
	if big.SubsetOf(small) {
		t.Error("⟨n3..n6⟩ ⊆ ⟨n4,n5⟩ should not hold")
	}
	if small.SubsetOf(other) || other.SubsetOf(small) {
		t.Error("disjoint fragments must not be subsets")
	}
	if !small.SubsetOf(small) {
		t.Error("SubsetOf must be reflexive")
	}
}

func TestFragmentSubsetAcrossDocuments(t *testing.T) {
	d1 := docgen.FigureThree()
	d2 := docgen.FigureThree()
	f1 := MustFragment(d1, 4, 5)
	f2 := MustFragment(d2, 4, 5)
	if f1.SubsetOf(f2) {
		t.Error("fragments of different documents must not be subsets")
	}
	if f1.Equal(f2) {
		t.Error("fragments of different documents must not be equal")
	}
}

func TestFragmentMeasures(t *testing.T) {
	d := docgen.FigureOne()
	tests := []struct {
		ids                           []xmltree.NodeID
		size, height, width, maxDepth int
	}{
		{mustIDs(17), 1, 0, 0, 4},
		{mustIDs(16, 17, 18), 3, 1, 2, 4},
		{mustIDs(16, 17), 2, 1, 1, 4},
		{mustIDs(0, 1, 14, 16, 17, 79, 80, 81), 8, 4, 81, 4},
		{mustIDs(0), 1, 0, 0, 0},
	}
	for _, tc := range tests {
		f := MustFragment(d, tc.ids...)
		if got := f.Size(); got != tc.size {
			t.Errorf("%v Size = %d, want %d", f, got, tc.size)
		}
		if got := f.Height(); got != tc.height {
			t.Errorf("%v Height = %d, want %d", f, got, tc.height)
		}
		if got := f.Width(); got != tc.width {
			t.Errorf("%v Width = %d, want %d", f, got, tc.width)
		}
		if got := f.MaxDepth(); got != tc.maxDepth {
			t.Errorf("%v MaxDepth = %d, want %d", f, got, tc.maxDepth)
		}
	}
}

func TestFragmentLeaves(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, 16, 17, 18)
	leaves := f.Leaves()
	if len(leaves) != 2 || leaves[0] != 17 || leaves[1] != 18 {
		t.Fatalf("Leaves(⟨n16,n17,n18⟩) = %v, want [n17 n18]", leaves)
	}
	single := MustFragment(d, 17)
	if l := single.Leaves(); len(l) != 1 || l[0] != 17 {
		t.Fatalf("Leaves(⟨n17⟩) = %v, want [n17]", l)
	}
	// Chain: only the deepest node is a leaf.
	chain := MustFragment(d, 0, 1, 14, 16)
	if l := chain.Leaves(); len(l) != 1 || l[0] != 16 {
		t.Fatalf("Leaves(chain) = %v, want [n16]", l)
	}
}

func TestFragmentKeywords(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, 16, 17, 18)
	if !f.HasKeyword("xquery") || !f.HasKeyword("optimization") {
		t.Error("target fragment must contain both query keywords")
	}
	if f.HasKeyword("nonexistentterm") {
		t.Error("HasKeyword must be false for absent terms")
	}
	if !f.HasKeywordOnLeaf("xquery") {
		t.Error("xquery occurs on leaves n17, n18")
	}
	// optimization occurs on leaf n17 too.
	if !f.HasKeywordOnLeaf("optimization") {
		t.Error("optimization occurs on leaf n17")
	}
	// In ⟨n16,n18⟩ the only leaf is n18 (no optimization).
	g := MustFragment(d, 16, 18)
	if g.HasKeywordOnLeaf("optimization") {
		t.Error("⟨n16,n18⟩ has no leaf with optimization")
	}
	if !g.HasKeyword("optimization") {
		t.Error("⟨n16,n18⟩ contains optimization on its root")
	}
}

func TestFragmentString(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, 16, 17, 18)
	if got := f.String(); got != "⟨n16,n17,n18⟩" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeFragmentPanicsOutOfRange(t *testing.T) {
	d := docgen.FigureThree()
	defer func() {
		if recover() == nil {
			t.Fatal("NodeFragment(99) should panic")
		}
	}()
	NodeFragment(d, 99)
}

func TestFragmentStringNotation(t *testing.T) {
	d := docgen.FigureThree()
	f := MustFragment(d, 3, 4, 5, 6, 7, 9)
	s := f.String()
	if !strings.HasPrefix(s, "⟨") || !strings.HasSuffix(s, "⟩") {
		t.Fatalf("String should use paper's angle notation, got %q", s)
	}
}
