package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Kernel benchmarks: the innermost loop of every evaluation strategy
// is fragment join + set dedup, so these pin ns/op and allocs/op for
// the primitives themselves. `make bench-json` runs them (with the RF
// sweep) into BENCH_core.json, and CI compares the output against the
// committed BENCH_baseline.txt — a regression in allocs/op fails the
// perf gate.

// benchDoc builds the deterministic document every kernel benchmark
// shares: big enough that joins cross real distances, small enough
// that a full pairwise join stays in cache.
func benchDoc(b *testing.B) *xmltree.Document {
	rng := rand.New(rand.NewSource(42))
	return buildRandomDoc(b, rng, 600)
}

// BenchmarkSetAddDup measures the dedup probe: re-adding a fragment
// already in the set. This is the hottest Set operation — every join
// result of a fixed-point iteration probes the accumulator, and the
// overwhelming majority are duplicates.
func BenchmarkSetAddDup(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(1))
	s := randomSet(b, rng, d, 200, 8)
	frags := s.Fragments()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(frags[i%len(frags)])
	}
}

// BenchmarkSetAddFresh measures insertion of new fragments (set grows
// every op; includes table growth amortized).
func BenchmarkSetAddFresh(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(2))
	frags := make([]Fragment, 4096)
	for i := range frags {
		frags[i] = randomFragment(b, rng, d, 1+rng.Intn(6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s *Set
	for i := 0; i < b.N; i++ {
		if i%len(frags) == 0 {
			s = NewSet()
		}
		s.Add(frags[i%len(frags)])
	}
}

// BenchmarkJoinOverlap joins two fragments that share nodes but
// absorb in neither direction, forcing the merge path.
func BenchmarkJoinOverlap(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(3))
	var f1, f2 Fragment
	for {
		f1 = randomFragment(b, rng, d, 10)
		f2 = randomFragment(b, rng, d, 10)
		shared := 0
		for _, id := range f2.IDs() {
			if f1.Contains(id) {
				shared++
			}
		}
		if shared > 0 && !f1.SubsetOf(f2) && !f2.SubsetOf(f1) {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(f1, f2)
	}
}

// BenchmarkJoinDisjoint joins two far-apart fragments, exercising the
// root-to-LCA path gathering.
func BenchmarkJoinDisjoint(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(4))
	var f1, f2 Fragment
	for {
		f1 = randomFragment(b, rng, d, 6)
		f2 = randomFragment(b, rng, d, 6)
		disjoint := true
		for _, id := range f2.IDs() {
			if f1.Contains(id) {
				disjoint = false
				break
			}
		}
		if disjoint {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(f1, f2)
	}
}

// BenchmarkJoinAbsorb joins f2 ⊆ f1 (the absorption fast path that
// every idempotent re-join hits).
func BenchmarkJoinAbsorb(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(5))
	f1 := randomFragment(b, rng, d, 12)
	f2 := NodeFragment(d, f1.IDs()[len(f1.IDs())/2])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(f1, f2)
	}
}

// BenchmarkPairwiseJoin measures the Definition 5 cross product on a
// small corpus, reporting joins/op alongside time and allocations.
func BenchmarkPairwiseJoin(b *testing.B) {
	d := benchDoc(b)
	for _, n := range []int{16, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			f1 := randomSet(b, rng, d, n, 5)
			f2 := randomSet(b, rng, d, n, 5)
			var c obs.EvalCounters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PairwiseJoinBounded(bg, &c, f1, f2, Selection{}, 1<<30); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Joins())/float64(b.N), "joins/op")
		})
	}
}

// BenchmarkFixedPoint measures the Theorem 1 fixed point (⊖ plus the
// budgeted self joins) on a moderately reducible set, where ⊖'s
// repeated witness-pair joins dominate.
func BenchmarkFixedPoint(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(7))
	f := randomSet(b, rng, d, 14, 3)
	var c obs.EvalCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixedPointBounded(bg, &c, f, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Joins())/float64(b.N), "joins/op")
}

// BenchmarkFilteredFixedPoint measures the push-down closure on a
// 64-fragment seed set under size ≤ 8: every pair is built and then
// asked.
func BenchmarkFilteredFixedPoint(b *testing.B) {
	d := benchDoc(b)
	pred := func(f Fragment) bool { return f.Size() <= 8 }
	rng := rand.New(rand.NewSource(8))
	f := randomSet(b, rng, d, 64, 2)
	b.Run("opaque", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := FilteredFixedPointBounded(bg, nil, f, Selection{Keep: pred}, 1<<30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFragmentLeaves measures leaf extraction (Definition 8's
// per-answer check).
func BenchmarkFragmentLeaves(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(9))
	f := randomFragment(b, rng, d, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Leaves()
	}
}
