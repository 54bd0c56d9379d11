package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Kernel benchmarks: the innermost loop of every evaluation strategy
// is fragment join + set dedup, so these time the primitives
// themselves (`make bench`; nothing gates their ns/op, which depends
// on the host — wall time is gated only by benchmark/run.sh). Each
// benchmark times an operation built by one of the *Op functions
// below, and TestKernelAllocs pins that same operation's allocations
// exactly: allocation counts do not depend on the host, so one more
// allocation per op fails `go test`.

// benchDoc builds the deterministic document every kernel benchmark
// shares: big enough that joins cross real distances, small enough
// that a full pairwise join stays in cache.
func benchDoc(tb testing.TB) *xmltree.Document {
	rng := rand.New(rand.NewSource(42))
	return buildRandomDoc(tb, rng, 600)
}

// benchOp times op, one call per iteration.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestKernelAllocs pins the allocations of every kernel benchmark's
// operation to its count today. The bounds are exact, not slack:
// testing.AllocsPerRun runs on one P, and every operation here is
// deterministic, so a changed count is a changed kernel. Heavy rows
// run fewer times; each still averages whole calls.
func TestKernelAllocs(t *testing.T) {
	// The process's first garbage collection starts the mark worker
	// goroutines, and allocates them; let it happen before counting.
	runtime.GC()
	for _, tc := range []struct {
		name  string
		build func(testing.TB) func()
		runs  int
		want  float64
	}{
		{"SetAddDup", setAddDupOp, 100, 0},
		{"JoinOverlap", joinOverlapOp, 100, 1},
		{"JoinDisjoint", joinDisjointOp, 100, 1},
		{"JoinAbsorb", joinAbsorbOp, 100, 0},
		{"PairwiseJoin/n=16", func(tb testing.TB) func() { return pairwiseJoinOp(tb, new(obs.EvalCounters), 16) }, 20, 271},
		{"PairwiseJoin/n=48", func(tb testing.TB) func() { return pairwiseJoinOp(tb, new(obs.EvalCounters), 48) }, 5, 2311},
		{"FixedPoint", func(tb testing.TB) func() { return fixedPointOp(tb, new(obs.EvalCounters)) }, 2, 59131},
		{"FilteredFixedPoint/opaque", filteredFixedPointOp, 2, 30951},
		{"FragmentLeaves", fragmentLeavesOp, 100, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.build(t)
			if got := testing.AllocsPerRun(tc.runs, op); got != tc.want {
				t.Errorf("%s allocates %.0f times per op, pinned at %.0f", tc.name, got, tc.want)
			}
		})
	}
}

// setAddDupOp re-adds a fragment already in the set: the dedup probe.
// This is the hottest Set operation — every join result of a
// fixed-point iteration probes the accumulator, and the overwhelming
// majority are duplicates.
func setAddDupOp(tb testing.TB) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(1))
	s := randomSet(tb, rng, d, 200, 8)
	frags := s.Fragments()
	i := 0
	return func() {
		s.Add(frags[i%len(frags)])
		i++
	}
}

func BenchmarkSetAddDup(b *testing.B) { benchOp(b, setAddDupOp(b)) }

// BenchmarkSetAddFresh measures filling a new set with 4 096 fragments,
// table growth included. One op is one whole fill and the set is made
// outside the timer, so a 100x run and a 1s run report the same
// quantity; ns/add divides it by the fragments added.
func BenchmarkSetAddFresh(b *testing.B) {
	d := benchDoc(b)
	rng := rand.New(rand.NewSource(2))
	frags := make([]Fragment, 4096)
	for i := range frags {
		frags[i] = randomFragment(b, rng, d, 1+rng.Intn(6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSet()
		b.StartTimer()
		for _, f := range frags {
			s.Add(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frags)), "ns/add")
}

// joinOverlapOp joins two fragments that share nodes but absorb in
// neither direction, forcing the merge path.
func joinOverlapOp(tb testing.TB) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(3))
	var f1, f2 Fragment
	for {
		f1 = randomFragment(tb, rng, d, 10)
		f2 = randomFragment(tb, rng, d, 10)
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
	return func() { Join(f1, f2) }
}

func BenchmarkJoinOverlap(b *testing.B) { benchOp(b, joinOverlapOp(b)) }

// joinDisjointOp joins two far-apart fragments, exercising the
// root-to-LCA path gathering.
func joinDisjointOp(tb testing.TB) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(4))
	var f1, f2 Fragment
	for {
		f1 = randomFragment(tb, rng, d, 6)
		f2 = randomFragment(tb, rng, d, 6)
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
	return func() { Join(f1, f2) }
}

func BenchmarkJoinDisjoint(b *testing.B) { benchOp(b, joinDisjointOp(b)) }

// joinAbsorbOp joins f2 ⊆ f1 (the absorption fast path that every
// idempotent re-join hits).
func joinAbsorbOp(tb testing.TB) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(5))
	f1 := randomFragment(tb, rng, d, 12)
	f2 := NodeFragment(d, f1.IDs()[len(f1.IDs())/2])
	return func() { Join(f1, f2) }
}

func BenchmarkJoinAbsorb(b *testing.B) { benchOp(b, joinAbsorbOp(b)) }

// pairwiseJoinOp is the Definition 5 cross product of two n-fragment
// sets.
func pairwiseJoinOp(tb testing.TB, c *obs.EvalCounters, n int) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(6))
	f1 := randomSet(tb, rng, d, n, 5)
	f2 := randomSet(tb, rng, d, n, 5)
	return func() {
		if _, err := PairwiseJoinBounded(bg, c, f1, f2, Selection{}, 1<<30); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPairwiseJoin measures the Definition 5 cross product on a
// small corpus, reporting joins/op alongside time and allocations.
func BenchmarkPairwiseJoin(b *testing.B) {
	for _, n := range []int{16, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var c obs.EvalCounters
			benchOp(b, pairwiseJoinOp(b, &c, n))
			b.StopTimer()
			b.ReportMetric(float64(c.Joins())/float64(b.N), "joins/op")
		})
	}
}

// fixedPointOp is the Theorem 1 fixed point (⊖ plus the budgeted self
// joins) on a moderately reducible set, where ⊖'s repeated
// witness-pair joins dominate.
func fixedPointOp(tb testing.TB, c *obs.EvalCounters) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(7))
	f := randomSet(tb, rng, d, 14, 3)
	return func() {
		if _, err := FixedPointBounded(bg, c, f, 1<<30); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkFixedPoint(b *testing.B) {
	var c obs.EvalCounters
	benchOp(b, fixedPointOp(b, &c))
	b.StopTimer()
	b.ReportMetric(float64(c.Joins())/float64(b.N), "joins/op")
}

// filteredFixedPointOp is the push-down closure on a 64-fragment seed
// set under size ≤ 8, with the bound given only as an opaque
// predicate: every pair is built and then asked.
func filteredFixedPointOp(tb testing.TB) func() {
	d := benchDoc(tb)
	pred := func(f Fragment) bool { return f.Size() <= 8 }
	rng := rand.New(rand.NewSource(8))
	f := randomSet(tb, rng, d, 64, 2)
	return func() {
		if _, err := FilteredFixedPointBounded(bg, nil, f, Selection{Keep: pred}, 1<<30); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkFilteredFixedPoint(b *testing.B) {
	b.Run("opaque", func(b *testing.B) { benchOp(b, filteredFixedPointOp(b)) })
}

// fragmentLeavesOp is leaf extraction (Definition 8's per-answer
// check).
func fragmentLeavesOp(tb testing.TB) func() {
	d := benchDoc(tb)
	rng := rand.New(rand.NewSource(9))
	f := randomFragment(tb, rng, d, 24)
	return func() { f.Leaves() }
}

func BenchmarkFragmentLeaves(b *testing.B) { benchOp(b, fragmentLeavesOp(b)) }
