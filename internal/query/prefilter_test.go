package query

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/xmltree"
)

// exhaustiveWitnessPairViolated is the witness-pair bound in its
// exhaustive form: each measure's minimum over all |wi|×|wj| pairs,
// then the verdict.
func exhaustiveWitnessPairViolated(doc *xmltree.Document, wi, wj []xmltree.NodeID, b core.Bounds) bool {
	minSize, minHeight, minWidth := maxIntValue, maxIntValue, maxIntValue
	for _, na := range wi {
		for _, nc := range wj {
			da, dc := doc.Depth(na), doc.Depth(nc)
			l := doc.LCA(na, nc)
			dl := doc.Depth(l)
			minSize = min(minSize, da+dc-2*dl+1)
			minHeight = min(minHeight, max(da, dc)-dl)
			minWidth = min(minWidth, int(max(na, nc)-l))
		}
	}
	return b.Size > 0 && minSize > b.Size ||
		b.Height > 0 && minHeight > b.Height ||
		b.Width > 0 && minWidth > b.Width
}

// randomTree generates a small document of random shape.
func randomTree(t testing.TB, rng *rand.Rand) *xmltree.Document {
	t.Helper()
	d, err := docgen.Generate(docgen.Config{
		Seed: rng.Int63(), Sections: 1 + rng.Intn(4), MeanFanout: 1 + rng.Intn(4),
		Depth: 1 + rng.Intn(4), VocabSize: 10, ParLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomWitnesses picks up to n distinct nodes of d in ascending order.
func randomWitnesses(rng *rand.Rand, d *xmltree.Document, n int) []xmltree.NodeID {
	seen := map[xmltree.NodeID]bool{}
	for i := 0; i < n; i++ {
		seen[xmltree.NodeID(rng.Intn(d.Len()))] = true
	}
	var out []xmltree.NodeID
	for id := xmltree.NodeID(0); int(id) < d.Len(); id++ {
		if seen[id] {
			out = append(out, id)
		}
	}
	return out
}

// TestWitnessPairBoundMatchesExhaustive: the early-exit bound gives the
// exhaustive verdict on random trees, witness sets and bounds.
func TestWitnessPairBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	verdicts := map[bool]int{}
	for c := 0; c < 3000; c++ {
		d := randomTree(t, rng)
		wi, wj := randomWitnesses(rng, d, 1+rng.Intn(8)), randomWitnesses(rng, d, 1+rng.Intn(8))
		b := core.Bounds{Size: rng.Intn(7), Height: rng.Intn(4), Width: rng.Intn(12)}
		if !b.Pairwise() {
			continue
		}
		got, want := witnessPairViolated(d, wi, wj, b), exhaustiveWitnessPairViolated(d, wi, wj, b)
		if got != want {
			t.Fatalf("case %d: %v × %v under %+v: violated %v, exhaustive %v", c, wi, wj, b, got, want)
		}
		verdicts[got]++
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: the generator does not exercise both outcomes", verdicts)
	}
}
