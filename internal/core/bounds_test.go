package core

import (
	"math/rand"
	"testing"

	"repro/internal/docgen"
)

// TestJoinExceedsIsExact checks the label verdict the filtered join
// loops decide pairs with: for every pair and every bound, rejecting
// from labels must agree exactly with building the join and measuring
// it — one way soundness (no answer lost), the other completeness (no
// over-limit pair built). Random trees cover the three placements of
// the second root (inside the first fragment, below its root but
// outside it, in a disjoint subtree) at every fragment size.
func TestJoinExceedsIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked, rejected := 0, 0
	for trial := 0; trial < 40; trial++ {
		d := buildRandomDoc(t, rng, 20+rng.Intn(120))
		for p := 0; p < 60; p++ {
			f1 := randomFragment(t, rng, d, 1+rng.Intn(7))
			f2 := randomFragment(t, rng, d, 1+rng.Intn(7))
			j := Join(f1, f2)
			for k := 0; k < 8; k++ {
				b := Bounds{}
				switch rng.Intn(5) {
				case 0:
					b.Size = 1 + rng.Intn(12)
				case 1:
					b.Height = 1 + rng.Intn(5)
				case 2:
					b.Depth = 1 + rng.Intn(8)
				case 3:
					b.Width = 1 + rng.Intn(30)
				default:
					b = Bounds{Size: 1 + rng.Intn(12), Height: 1 + rng.Intn(5), Depth: 1 + rng.Intn(8), Width: 1 + rng.Intn(30)}
				}
				want := !b.Admits(j)
				if got := b.joinExceeds(f1, f2); got != want {
					t.Fatalf("%+v.joinExceeds(%v, %v) = %v, want %v (join %v)", b, f1, f2, got, want, j)
				}
				if got := b.joinExceeds(f2, f1); got != want {
					t.Fatalf("%+v.joinExceeds(%v, %v) = %v, want %v (join %v)", b, f2, f1, got, want, j)
				}
				checked++
				if want {
					rejected++
				}
			}
		}
	}
	// Both verdicts must be exercised in bulk, or the test proves
	// little.
	if rejected < checked/5 || rejected > checked*4/5 {
		t.Fatalf("%d of %d verdicts were rejections; the bounds drawn do not exercise both sides", rejected, checked)
	}
}

// TestJoinExceedsTable1 pins the verdict on the paper's own pairs:
// Table 1's joins of the Figure 1 witnesses under size ≤ 3.
func TestJoinExceedsTable1(t *testing.T) {
	d := docgen.FigureOne()
	b := Bounds{Size: 3}
	ids := []int{16, 17, 18, 81}
	for _, x := range ids {
		for _, y := range ids {
			f1 := MustFragment(d, mustIDs(x)...)
			f2 := MustFragment(d, mustIDs(y)...)
			if got, want := b.joinExceeds(f1, f2), Join(f1, f2).Size() > 3; got != want {
				t.Errorf("n%d ⋈ n%d: joinExceeds = %v, want %v (join %v)", x, y, got, want, Join(f1, f2))
			}
		}
	}
}

func TestSelectionAccepts(t *testing.T) {
	d := docgen.FigureOne()
	f := MustFragment(d, mustIDs(16, 17, 18)...)
	cases := []struct {
		name string
		sel  Selection
		want bool
	}{
		{"zero keeps all", Selection{}, true},
		{"bound admits", Selection{Bounds: Bounds{Size: 3}}, true},
		{"bound rejects", Selection{Bounds: Bounds{Size: 2}}, false},
		{"keep rejects", Selection{Keep: func(Fragment) bool { return false }}, false},
		{"both must pass", Selection{Bounds: Bounds{Height: 1}, Keep: func(Fragment) bool { return true }}, true},
	}
	for _, tc := range cases {
		if got := tc.sel.Accepts(f); got != tc.want {
			t.Errorf("%s: Accepts = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !(Selection{}).IsZero() || (Selection{Bounds: Bounds{Width: 1}}).IsZero() {
		t.Error("IsZero must hold exactly for the accept-all selection")
	}
}
