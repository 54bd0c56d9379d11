package xfrag

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - O(1) sparse-table LCA vs. Dewey common-prefix vs. parent
//     walking (the relational substrate's method);
//   - semi-naive fixed-point iteration vs. the full re-join the
//     dynamic-programming expansion of Section 3.1.1 suggests;
//   - push-down filtering inside fixed points vs. filtering after.
//
// Run with: go test -bench=Ablation -benchmem

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/docgen"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

func ablationDoc(b *testing.B) *xmltree.Document {
	b.Helper()
	d, err := docgen.Generate(docgen.Config{
		Seed: 13, Sections: 10, MeanFanout: 5, Depth: 4, VocabSize: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkAblationLCA compares the three LCA implementations on the
// same random query pairs.
func BenchmarkAblationLCA(b *testing.B) {
	d := ablationDoc(b)
	store := relstore.FromDocument(d)
	rng := rand.New(rand.NewSource(17))
	pairs := make([][2]xmltree.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]xmltree.NodeID{
			xmltree.NodeID(rng.Intn(d.Len())),
			xmltree.NodeID(rng.Intn(d.Len())),
		}
	}
	d.LCADewey(0, 0) // force label build outside the timer
	b.Run("sparse-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = d.LCA(p[0], p[1])
		}
	})
	b.Run("dewey-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = d.LCADewey(p[0], p[1])
		}
	})
	b.Run("parent-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = store.LCA(p[0], p[1])
		}
	})
}

// fullRejoinFixedPoint is the pre-semi-naive iteration: every round
// re-joins the whole accumulated set against the base and checks for
// stability — the literal dynamic-programming reading of
// Section 3.1.1, kept here purely as the ablation baseline.
func fullRejoinFixedPoint(f *core.Set) *core.Set {
	acc := f.Clone()
	for {
		next := core.PairwiseJoin(acc, f)
		if next.Equal(acc) {
			return acc
		}
		acc = next
	}
}

// BenchmarkAblationSemiNaive quantifies the semi-naive frontier
// optimization in the fixed-point computation.
func BenchmarkAblationSemiNaive(b *testing.B) {
	d := ablationDoc(b)
	rng := rand.New(rand.NewSource(23))
	F := core.NewSet()
	for F.Len() < 8 {
		F.Add(core.NodeFragment(d, xmltree.NodeID(rng.Intn(d.Len()))))
	}
	want := core.FixedPointNaive(F)
	if !fullRejoinFixedPoint(F).Equal(want) {
		b.Fatal("ablation baseline disagrees")
	}
	b.Run("semi-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FixedPointNaive(F)
		}
	})
	b.Run("full-rejoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fullRejoinFixedPoint(F)
		}
	})
}

// BenchmarkAblationPushDownDepth compares filtering inside the
// fixed-point iteration (Theorem 3 push-down) against computing the
// unfiltered fixed point and selecting afterwards.
func BenchmarkAblationPushDownDepth(b *testing.B) {
	d := ablationDoc(b)
	rng := rand.New(rand.NewSource(29))
	F := core.NewSet()
	for F.Len() < 9 {
		F.Add(core.NodeFragment(d, xmltree.NodeID(rng.Intn(d.Len()))))
	}
	pred := func(f core.Fragment) bool { return f.Size() <= 4 }
	want := core.FixedPointNaive(F).Select(pred)
	if !core.FilteredFixedPoint(F, pred).Equal(want) {
		b.Fatal("push-down disagrees with select-after")
	}
	b.Run("filter-inside", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FilteredFixedPoint(F, pred)
		}
	})
	b.Run("filter-after", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FixedPointNaive(F).Select(pred)
		}
	})
}

// BenchmarkAblationSubsetCheck compares the merge-based SubsetOf with
// a map-based alternative, justifying the sorted-slice representation.
func BenchmarkAblationSubsetCheck(b *testing.B) {
	d := ablationDoc(b)
	rng := rand.New(rand.NewSource(31))
	big := core.NodeFragment(d, 0)
	for i := 0; i < 40; i++ {
		big = core.Join(big, core.NodeFragment(d, xmltree.NodeID(rng.Intn(d.Len()))))
	}
	small := core.NodeFragment(d, big.IDs()[len(big.IDs())/2])
	mapSubset := func(a, f core.Fragment) bool {
		set := make(map[xmltree.NodeID]bool, f.Size())
		for _, id := range f.IDs() {
			set[id] = true
		}
		for _, id := range a.IDs() {
			if !set[id] {
				return false
			}
		}
		return true
	}
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !small.SubsetOf(big) {
				b.Fatal("wrong")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !mapSubset(small, big) {
				b.Fatal("wrong")
			}
		}
	})
}
