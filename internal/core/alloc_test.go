package core

import (
	"math/rand"
	"testing"
)

// Allocation-regression pins for the join/dedup hot path. These assert
// the structural guarantees of the allocation-light kernel: duplicate
// set probes never allocate, a merging join allocates exactly its
// result slice, and the pairwise-join loop allocates proportionally to
// distinct results, not to probes. testing.AllocsPerRun disables
// parallelism, so the numbers are exact, not statistical.

func TestSetAddDuplicateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := buildRandomDoc(t, rng, 200)
	s := &Set{}
	frags := make([]Fragment, 0, 32)
	for i := 0; i < 32; i++ {
		f := randomFragment(t, rng, d, 6)
		s.Add(f)
		frags = append(frags, f)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frags {
			if s.Add(f) {
				t.Fatal("duplicate Add reported insertion")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate Set.Add allocated %.1f times per run, want 0", allocs)
	}
}

func TestSetContainsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := buildRandomDoc(t, rng, 200)
	s := randomSet(t, rng, d, 24, 6)
	frags := s.Fragments()
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frags {
			if !s.Contains(f) {
				t.Fatal("member not found")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Set.Contains allocated %.1f times per run, want 0", allocs)
	}
}

func TestJoinAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := buildRandomDoc(t, rng, 400)
	f1 := randomFragment(t, rng, d, 8)
	f2 := randomFragment(t, rng, d, 8)
	// A merging join builds its result in pooled scratch and copies
	// once: exactly one allocation (the returned IDs). Warm the pool
	// first so the run does not pay the pool's initial miss.
	Join(f1, f2)
	allocs := testing.AllocsPerRun(100, func() { Join(f1, f2) })
	if allocs > 1 {
		t.Fatalf("merging Join allocated %.1f times per run, want <= 1", allocs)
	}
	// Absorption fast path: joining a fragment with its own subset
	// returns an operand unchanged — zero allocations.
	j := Join(f1, f2)
	allocs = testing.AllocsPerRun(100, func() { Join(j, f1) })
	if allocs != 0 {
		t.Fatalf("absorbing Join allocated %.1f times per run, want 0", allocs)
	}
}

func TestFragmentLeavesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := buildRandomDoc(t, rng, 400)
	f := randomFragment(t, rng, d, 12)
	allocs := testing.AllocsPerRun(100, func() { f.Leaves() })
	if allocs > 2 {
		t.Fatalf("Fragment.Leaves allocated %.1f times per run, want <= 2 (parents + result)", allocs)
	}
}

func TestPairwiseJoinAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := buildRandomDoc(t, rng, 400)
	f1 := randomSet(t, rng, d, 12, 5)
	f2 := randomSet(t, rng, d, 12, 5)
	out, err := PairwiseJoinBounded(bg, nil, f1, f2, Selection{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	probes := f1.Len() * f2.Len()
	// Each distinct result costs O(1) allocations (IDs, set growth
	// amortized); duplicate probes must cost none. Allow a generous
	// constant per distinct fragment plus set-table regrowth, and
	// verify the bound scales with results rather than probes.
	budget := float64(8*out.Len() + 64)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PairwiseJoinBounded(bg, nil, f1, f2, Selection{}, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("PairwiseJoin allocated %.1f times per run over %d probes / %d results, want <= %.0f",
			allocs, probes, out.Len(), budget)
	}
}
