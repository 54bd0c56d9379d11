package cost

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/xmltree"
)

func seedsFigure1(t testing.TB) (*core.Set, *core.Set) {
	t.Helper()
	d := docgen.FigureOne()
	return core.NodeFragments(d, d.NodesWithKeyword("xquery")),
		core.NodeFragments(d, d.NodesWithKeyword("optimization"))
}

func TestEstimateRFExactOnSmallSets(t *testing.T) {
	_, F2 := seedsFigure1(t)
	// |F2| = 3 < default sample, so the estimate is exact: RF = 1/3.
	if got, want := EstimateRF(F2, 16, 1), 1.0/3.0; got != want {
		t.Fatalf("EstimateRF = %v, want %v", got, want)
	}
}

func TestEstimateRFTrivialSets(t *testing.T) {
	d := docgen.FigureOne()
	if got := EstimateRF(core.NewSet(), 8, 1); got != 0 {
		t.Fatalf("empty set RF = %v", got)
	}
	two := core.NewSet(core.NodeFragment(d, 17), core.NodeFragment(d, 18))
	if got := EstimateRF(two, 8, 1); got != 0 {
		t.Fatalf("pair RF = %v, want 0", got)
	}
}

func TestEstimateRFApproximatesTrue(t *testing.T) {
	// Build a set with high true RF: many nodes on one root path plus
	// two leaves — the path nodes are all covered by leaf⋈root joins.
	b := xmltree.NewBuilder("deep", "root", "")
	parent := xmltree.NodeID(0)
	var chain []xmltree.NodeID
	for i := 0; i < 30; i++ {
		parent = b.AddNode(parent, "lvl", "")
		chain = append(chain, parent)
	}
	d := b.Build()
	F := core.NewSet()
	F.Add(core.NodeFragment(d, 0))
	for _, id := range chain {
		F.Add(core.NodeFragment(d, id))
	}
	trueRF := core.ReductionFactor(F)
	if trueRF < 0.8 {
		t.Fatalf("test setup: true RF = %v, expected high", trueRF)
	}
	est := EstimateRF(F, 12, 7)
	if est < trueRF-0.35 {
		t.Fatalf("estimate %v too far below true RF %v", est, trueRF)
	}
}

func TestEstimateRFDeterministic(t *testing.T) {
	rngDoc, err := docgen.Generate(docgen.Config{Seed: 3, Sections: 3, MeanFanout: 4, Depth: 2, VocabSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	F := core.NewSet()
	for i := 0; i < 40; i++ {
		F.Add(core.NodeFragment(rngDoc, xmltree.NodeID(rng.Intn(rngDoc.Len()))))
	}
	a := EstimateRF(F, 10, 42)
	bb := EstimateRF(F, 10, 42)
	if a != bb {
		t.Fatalf("same seed gave %v then %v", a, bb)
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		BruteForce:   "brute-force",
		Naive:        "naive-fixed-point",
		SetReduction: "set-reduction",
		PushDown:     "push-down",
		Strategy(99): "unknown",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    Strategy
		auto    bool
		wantErr bool
	}{
		{name: "", want: PushDown, auto: true},
		{name: "auto", want: PushDown, auto: true},
		{name: "brute-force", want: BruteForce},
		{name: "naive", want: Naive},
		{name: "set-reduction", want: SetReduction},
		{name: "push-down", want: PushDown},
		{name: "warp", wantErr: true},
		{name: "Auto", wantErr: true},
		{name: "naive-fixed-point", wantErr: true}, // Strategy.String's spelling is not an input
		{name: "enumerate", wantErr: true},         // auto's enumeration is reported, never forced
	} {
		got, auto, err := ParseStrategy(tc.name)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name)) {
				t.Errorf("ParseStrategy(%q) error = %v, want one naming the input", tc.name, err)
			}
			continue
		}
		if err != nil || got != tc.want || auto != tc.auto {
			t.Errorf("ParseStrategy(%q) = %v, %v, %v; want %v, %v, nil", tc.name, got, auto, err, tc.want, tc.auto)
		}
	}
}

func TestChooserAntiMonotonicAlwaysPushDown(t *testing.T) {
	F1, F2 := seedsFigure1(t)
	c := DefaultChooser()
	if got := c.Choose([]*core.Set{F1, F2}, true); got != PushDown {
		t.Fatalf("Choose with anti-monotonic filter = %v, want PushDown", got)
	}
}

func TestChooserTinyInputsBruteForce(t *testing.T) {
	F1, F2 := seedsFigure1(t)
	c := DefaultChooser()
	if got := c.Choose([]*core.Set{F1, F2}, false); got != BruteForce {
		t.Fatalf("Choose on 5 seeds = %v, want BruteForce", got)
	}
}

func TestChooserRFDecides(t *testing.T) {
	c := Chooser{Crossover: 0.25, BruteForceLimit: 4, SampleSize: 32, Seed: 1}

	// Chain-shaped set (every interior node covered by deeper⋈root
	// joins): high RF → SetReduction.
	bc := xmltree.NewBuilder("deep", "root", "")
	parent := xmltree.NodeID(0)
	chainSet := core.NewSet(core.NodeFragment(buildChainDoc(bc, &parent, 25), 0))
	for id := xmltree.NodeID(1); int(id) < chainSet.At(0).Document().Len(); id++ {
		chainSet.Add(core.NodeFragment(chainSet.At(0).Document(), id))
	}
	if got := c.Choose([]*core.Set{chainSet}, false); got != SetReduction {
		t.Fatalf("high-RF input chose %v, want SetReduction", got)
	}

	// Star-shaped set of leaves (no member covered by any pairwise
	// join): RF = 0 → Naive.
	bs := xmltree.NewBuilder("star", "root", "")
	starLeaves := core.NewSet()
	var starDoc *xmltree.Document
	for i := 0; i < 30; i++ {
		bs.AddNode(0, "leaf", "")
	}
	starDoc = bs.Build()
	for id := xmltree.NodeID(1); int(id) < starDoc.Len(); id++ {
		starLeaves.Add(core.NodeFragment(starDoc, id))
	}
	if rf := core.ReductionFactor(starLeaves); rf != 0 {
		t.Fatalf("test setup: star leaves RF = %v, want 0", rf)
	}
	if got := c.Choose([]*core.Set{starLeaves}, false); got != Naive {
		t.Fatalf("zero-RF input chose %v, want Naive", got)
	}
}

// buildChainDoc builds a root chain of the given depth and returns the
// document (helper keeping the chain construction in one place).
func buildChainDoc(b *xmltree.Builder, parent *xmltree.NodeID, depth int) *xmltree.Document {
	for i := 0; i < depth; i++ {
		*parent = b.AddNode(*parent, "lvl", "")
	}
	return b.Build()
}
