package core

import "repro/internal/obs"

// FixedPointNaive computes F⁺ (Definition 9) by the dynamic-programming
// expansion F⁺ = F ∪ (F⋈F) ∪ (F⋈F⋈F) ∪ … (Section 3.1.1): it joins the
// accumulated set with F repeatedly (semi-naive: only newly discovered
// fragments rejoin F) and stops when an iteration adds nothing — the
// "fixed point checking" whose overhead Theorem 1 eliminates. Even
// with semi-naive evaluation the final, empty iteration re-joins the
// last frontier against F, which is the checking cost the budgeted
// FixedPoint avoids.
func FixedPointNaive(f *Set) *Set {
	return mustSet(FixedPointNaiveBounded(nil, nil, f, unbounded))
}

// FixedPoint computes F⁺ using Theorem 1: the fixed point is reached
// after exactly k = |⊖(F)| pairwise self joins, so no fixed-point
// checking is needed (Section 3.1.2). For |F| ≤ 2 the reduced set is F
// itself.
func FixedPoint(f *Set) *Set {
	return mustSet(FixedPointBounded(nil, nil, f, unbounded))
}

// FixedPointIterations returns the iteration budget Theorem 1
// prescribes for computing F⁺: |⊖(F)|.
func FixedPointIterations(f *Set) int {
	return Reduce(f).Len()
}

// FilteredFixedPoint computes σ_Pa(F⁺) with the selection pushed inside
// every iteration (Section 3.3's expansion of Theorem 3): the input is
// filtered, and every pairwise join result is filtered before it can
// participate in later iterations. pred must be anti-monotonic for the
// result to equal σ_Pa(FixedPoint(F)); with anti-monotonicity, any
// fragment discarded early could only have produced discardable
// super-fragments, so nothing in the final selection is lost.
func FilteredFixedPoint(f *Set, pred func(Fragment) bool) *Set {
	return mustSet(FilteredFixedPointBounded(nil, nil, f, Selection{Keep: pred}, unbounded))
}

// Reduce computes the reduced set ⊖(F) (Definition 10): fragments
// that are sub-fragments of the join of two other distinct fragments
// of F are eliminated. |⊖(F)| is the Theorem 1 iteration budget; the
// reduction factor (|F|−|⊖(F)|)/|F| drives the Section 5 strategy
// choice.
//
// Elimination is performed iteratively (one fragment at a time, with
// witnesses drawn from the fragments still present), not
// simultaneously over the original set. The definition read literally
// allows two fragments to eliminate each other — e.g.
// F = {⟨a,b⟩, ⟨p,a,b⟩, x, y} where ⟨a,b⟩ ⊆ ⟨p,a,b⟩⋈x and
// ⟨p,a,b⟩ ⊆ ⟨a,b⟩⋈x when p lies on the connecting path — leaving a
// reduced set too small for Theorem 1 to hold (the theorem's proof
// assumes every eliminated fragment has a surviving witness pair).
// Iterative elimination restores that invariant; on inputs without
// mutual elimination (such as the paper's Figure 4 example) the two
// readings agree. See DESIGN.md for the reproduction note.
func Reduce(f *Set) *Set { return ReduceState(nil, f) }

// ReduceState is Reduce counting its witness-pair joins on c
// (nil-safe). The elimination sweeps probe the same witness pairs once
// per candidate per sweep — O(|F|³) join applications over O(|F|²)
// distinct pairs — and every probe builds its join.
func ReduceState(c *obs.EvalCounters, f *Set) *Set {
	n := f.Len()
	if n <= 2 {
		// A set needs at least three elements for any to be eliminated
		// (Theorem 1's proof, trivial case).
		return f.Clone()
	}
	frags := append([]Fragment(nil), f.Fragments()...)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	for changed := true; changed && aliveCount > 2; {
		changed = false
		for k := 0; k < n; k++ {
			if !alive[k] {
				continue
			}
			if coveredByPair(c, frags, alive, k) {
				alive[k] = false
				aliveCount--
				changed = true
				if aliveCount <= 2 {
					break
				}
			}
		}
	}
	out := &Set{}
	for i, keep := range alive {
		if keep {
			out.Add(frags[i])
		}
	}
	return out
}

// coveredByPair reports whether frags[k] is a sub-fragment of the join
// of two distinct other alive fragments.
func coveredByPair(c *obs.EvalCounters, frags []Fragment, alive []bool, k int) bool {
	for i := range frags {
		if !alive[i] || i == k {
			continue
		}
		for j := i + 1; j < len(frags); j++ {
			if !alive[j] || j == k {
				continue
			}
			if frags[k].SubsetOf(joinCounted(c, frags[i], frags[j])) {
				return true
			}
		}
	}
	return false
}

// ReductionFactor returns RF = (a−b)/a where a = |F| and b = |⊖(F)|
// (Section 5). RF = 0 means no reduction; values close to 1 mean the
// set-reduction technique pays off. Returns 0 for an empty set.
func ReductionFactor(f *Set) float64 {
	a := f.Len()
	if a == 0 {
		return 0
	}
	b := Reduce(f).Len()
	return float64(a-b) / float64(a)
}
