package core

import (
	"testing"

	"repro/internal/docgen"
)

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
