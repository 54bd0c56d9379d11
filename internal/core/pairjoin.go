package core

// unbounded is the fragment budget of the paper-form operators:
// effectively infinite, so the shared bounded loops serve both forms
// without duplicating the join kernel.
const unbounded = int(^uint(0) >> 1)

// mustSet unwraps a bounded-loop result that cannot have failed (nil
// context, unbounded budget).
func mustSet(s *Set, err error) *Set {
	if err != nil {
		panic("core: unbounded evaluation failed: " + err.Error())
	}
	return s
}

// PairwiseJoin computes F1 ⋈ F2 (Definition 5): the fragment join of
// every pair (f1, f2) ∈ F1 × F2, deduplicated. It is commutative,
// associative, monotone (F ⊆ F ⋈ F) and distributes over union, but is
// NOT idempotent: joining a set with itself can create fragments not in
// the set (Section 2.2).
func PairwiseJoin(f1, f2 *Set) *Set {
	return mustSet(PairwiseJoinBounded(nil, nil, f1, f2, Selection{}, unbounded))
}

// PairwiseJoinFiltered is PairwiseJoin with a selection applied to
// every produced fragment before it enters the result. With an
// anti-monotonic predicate this is the push-down form licensed by
// Theorem 3: σ_Pa(F1 ⋈ F2) = σ_Pa(σ_Pa(F1) ⋈ σ_Pa(F2)); callers filter
// the inputs themselves and pass the same predicate here.
func PairwiseJoinFiltered(f1, f2 *Set, pred func(Fragment) bool) *Set {
	return mustSet(PairwiseJoinBounded(nil, nil, f1, f2, Selection{Keep: pred}, unbounded))
}

// SelfJoinTimes computes ⋈_n(F): the pairwise fragment join applied to
// n copies of F, i.e. F, F⋈F, (F⋈F)⋈F, … (Theorem 1's notation).
// n must be at least 1; ⋈_1(F) = F. The result accumulates every
// intermediate fragment because pairwise join is monotone, so
// ⋈_n(F) ⊇ ⋈_{n-1}(F).
//
// Evaluation is semi-naive: each iteration joins only the fragments
// discovered in the previous iteration against F, since older members
// have already met every element of F. This cuts the join count from
// O(n·|F⁺|·|F|) to O(|F⁺|·|F|) without changing the result.
func SelfJoinTimes(f *Set, n int) *Set {
	return mustSet(SelfJoinTimesBounded(nil, nil, f, n, unbounded))
}
