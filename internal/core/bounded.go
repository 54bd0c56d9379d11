package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudgetExceeded reports that an operation was aborted because its
// result grew past the caller's fragment budget. The powerset join
// family is worst-case exponential in its input (Section 3.1 calls
// the naive algorithm "impractical for a large value of |F|"); the
// bounded variants let an engine fail fast with a diagnostic instead
// of computing for hours, steering users toward a (push-down-capable)
// filter.
var ErrBudgetExceeded = errors.New("core: fragment budget exceeded")

func budgetError(op string, budget int) error {
	return fmt.Errorf("%w: %s grew past %d fragments; add or tighten an anti-monotonic filter", ErrBudgetExceeded, op, budget)
}

// The *Bounded functions are the evaluator form of each operator: they
// check the fragment budget on every insertion, poll ctx for
// cancellation amortized (see checkCtx), and thread the per-evaluation
// *EvalState (counters + pair-join memo) through every fragment join.
// The query evaluator builds one EvalState per evaluation, so pairs
// re-joined across operators are served from the memo. The paper form
// of each operator (PairwiseJoin, FixedPoint, …) is the same loop run
// with no context, a fresh state and no budget.

// symmetricSelfPass runs the F × F join pass exploiting commutativity:
// each unordered pair is joined once and its mirror consumed again
// without recomputation. The mirror still counts as a logical join
// (Definition 4 was applied, just not recomputed) and as a join-memo
// hit, so counter totals are identical to the literal ordered loop.
// When the evaluation state's pair memo is already populated (⊖ ran
// first on the Theorem 1 path), the computed half is served from it
// too; otherwise the memo map is bypassed entirely — frontier pairs
// never repeat, so inserts would be pure overhead.
func symmetricSelfPass(ctx context.Context, st *EvalState, fs []Fragment, tick *int, consume func(Fragment) error) error {
	c := st.Counters()
	useMemo := st.MemoLen() > 0
	for ai, a := range fs {
		for bi := ai; bi < len(fs); bi++ {
			if err := checkCtx(ctx, tick); err != nil {
				return err
			}
			var j Fragment
			if useMemo {
				j = st.JoinMemo(a, fs[bi])
			} else {
				j = joinCounted(c, a, fs[bi])
			}
			if err := consume(j); err != nil {
				return err
			}
			if bi != ai {
				c.AddJoins(1)
				c.AddJoinMemoHits(1)
				if err := consume(j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// PairwiseJoinBounded computes F1 ⋈ F2 (Definition 5), keeping only
// the results pred accepts (nil pred keeps all), and aborts with
// ErrBudgetExceeded once the result would exceed maxFragments. With an
// anti-monotonic pred this is the push-down form licensed by Theorem 3:
// σ_Pa(F1 ⋈ F2) = σ_Pa(σ_Pa(F1) ⋈ σ_Pa(F2)); callers filter the inputs
// themselves and pass the same predicate here.
func PairwiseJoinBounded(ctx context.Context, st *EvalState, f1, f2 *Set, pred func(Fragment) bool, maxFragments int) (*Set, error) {
	op := "pairwise join"
	if pred != nil {
		op = "filtered pairwise join"
	}
	c := st.Counters()
	c.AddPairwiseJoins(1)
	out := &Set{}
	tick := 0
	consume := func(j Fragment) error {
		if pred != nil && !pred(j) {
			c.AddFilterPrunes(1)
			return nil
		}
		c.AddDedupProbes(1)
		out.Add(j)
		if out.Len() > maxFragments {
			return budgetError(op, maxFragments)
		}
		return nil
	}
	// A self pairwise join (F ⋈ F) meets every unordered pair twice —
	// (a,b) and (b,a) — so the symmetric pass computes each once.
	if f1 == f2 {
		if err := symmetricSelfPass(ctx, st, f1.frags, &tick, consume); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Distinct operands never repeat a pair: join directly, no memo.
	for _, a := range f1.frags {
		for _, b := range f2.frags {
			if err := checkCtx(ctx, &tick); err != nil {
				return nil, err
			}
			if err := consume(joinCounted(c, a, b)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// frontierClosure is the one semi-naive loop behind the self-join and
// fixed-point family: starting from σ_pred(f) (nil pred keeps all), it
// joins each iteration's newly discovered fragments against the base
// set — older members have already met every element of it — keeping
// the results pred accepts, until an iteration adds nothing or maxIter
// iterations have run (0 means until empty). op labels the budget
// error.
func frontierClosure(ctx context.Context, st *EvalState, f *Set, pred func(Fragment) bool, maxIter, maxFragments int, op string) (*Set, error) {
	c := st.Counters()
	base := f
	if pred != nil {
		base = f.Select(pred)
		c.AddFilterPrunes(uint64(f.Len() - base.Len()))
	}
	acc := base.Clone()
	if acc.Len() > maxFragments {
		return nil, budgetError(op, maxFragments)
	}
	frontier := base.Fragments()
	tick := 0
	var next []Fragment // fragments first seen in the current iteration
	consume := func(j Fragment) error {
		if pred != nil && !pred(j) {
			c.AddFilterPrunes(1)
			return nil
		}
		c.AddDedupProbes(1)
		if acc.Add(j) {
			next = append(next, j)
			if acc.Len() > maxFragments {
				return budgetError(op, maxFragments)
			}
		}
		return nil
	}
	for iter := 0; len(frontier) > 0 && (maxIter == 0 || iter < maxIter); iter++ {
		c.AddFixedPointIterations(1)
		next = nil
		// The first pass joins base × base — symmetric, so each
		// unordered pair is computed once (served from the shared memo
		// when ⊖'s witness probing already ran, on the Theorem 1 path).
		// Later iterations join freshly discovered frontiers that can
		// never repeat a pair — they join directly, in a loop written
		// out here: calling consume from this function is a direct
		// call, while routing it through a shared helper cost 5% on
		// BenchmarkFilteredFixedPoint.
		if iter == 0 {
			if err := symmetricSelfPass(ctx, st, base.Fragments(), &tick, consume); err != nil {
				return nil, err
			}
			frontier = next
			continue
		}
		for _, a := range frontier {
			for _, b := range base.Fragments() {
				if err := checkCtx(ctx, &tick); err != nil {
					return nil, err
				}
				if err := consume(joinCounted(c, a, b)); err != nil {
					return nil, err
				}
			}
		}
		frontier = next
	}
	return acc, nil
}

// SelfJoinTimesBounded computes ⋈_n(F) (Theorem 1's notation; n ≥ 1)
// with a fragment budget.
func SelfJoinTimesBounded(ctx context.Context, st *EvalState, f *Set, n, maxFragments int) (*Set, error) {
	if n < 1 {
		panic("core: SelfJoinTimesBounded requires n >= 1")
	}
	if n == 1 {
		// ⋈_1(F) = F: no join runs, only the budget applies.
		if f.Len() > maxFragments {
			return nil, budgetError("self join", maxFragments)
		}
		return f.Clone(), nil
	}
	return frontierClosure(ctx, st, f, nil, n-1, maxFragments, "self join")
}

// FixedPointBounded computes F⁺ with Theorem 1's iteration budget
// k = |⊖(F)| and a fragment budget. The ⊖ computation itself is
// O(|F|³) joins and not interrupted mid-way; its cost is bounded by
// the seed-set size, not the exponential expansion — and the shared
// pair memo collapses its repeated witness joins to one computation
// per distinct pair.
func FixedPointBounded(ctx context.Context, st *EvalState, f *Set, maxFragments int) (*Set, error) {
	k := ReduceState(st, f).Len()
	if k < 1 {
		k = 1
	}
	return SelfJoinTimesBounded(ctx, st, f, k, maxFragments)
}

// FixedPointNaiveBounded computes F⁺ with fixed-point checking and a
// fragment budget.
func FixedPointNaiveBounded(ctx context.Context, st *EvalState, f *Set, maxFragments int) (*Set, error) {
	return frontierClosure(ctx, st, f, nil, 0, maxFragments, "fixed point")
}

// FilteredFixedPointBounded computes σ_Pa(F⁺) with push-down and a
// fragment budget. With a selective anti-monotonic predicate the
// budget is rarely hit — which is the paper's optimization story.
func FilteredFixedPointBounded(ctx context.Context, st *EvalState, f *Set, pred func(Fragment) bool, maxFragments int) (*Set, error) {
	return frontierClosure(ctx, st, f, pred, 0, maxFragments, "filtered fixed point")
}
