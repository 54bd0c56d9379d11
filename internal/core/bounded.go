package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
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
// cancellation amortized (see checkCtx), and count every operator
// application on the evaluation's counters c (nil-safe: a nil c counts
// nothing). The paper form of each operator (PairwiseJoin, FixedPoint,
// …) is the same loop run with no context, no counters and no budget.
//
// The filtered loops build every pair and then ask the selection
// (Selection.Accepts): a join it rejects counts as one join and one
// filter prune.

// symmetricSelfPass runs the F × F join pass exploiting commutativity:
// each unordered pair is joined once and its mirror consumed again
// without recomputation. The mirror still counts as a logical join
// (Definition 4 was applied, just not recomputed) and as a join-memo
// hit, so counter totals are identical to the literal ordered loop.
func symmetricSelfPass(ctx context.Context, c *obs.EvalCounters, fs []Fragment, tick *int, consume func(Fragment) error) error {
	for ai, a := range fs {
		for bi := ai; bi < len(fs); bi++ {
			if err := checkCtx(ctx, tick); err != nil {
				return err
			}
			j := joinCounted(c, a, fs[bi])
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
// the results sel accepts (the zero Selection keeps all), and aborts
// with ErrBudgetExceeded once the result would exceed maxFragments.
// With an anti-monotonic selection this is the push-down form licensed
// by Theorem 3: σ_Pa(F1 ⋈ F2) = σ_Pa(σ_Pa(F1) ⋈ σ_Pa(F2)); callers
// filter the inputs themselves and pass the same selection here.
func PairwiseJoinBounded(ctx context.Context, c *obs.EvalCounters, f1, f2 *Set, sel Selection, maxFragments int) (*Set, error) {
	op := "pairwise join"
	if !sel.IsZero() {
		op = "filtered pairwise join"
	}
	c.AddPairwiseJoins(1)
	out := &Set{}
	tick := 0
	consume := func(j Fragment) error {
		if !sel.Accepts(j) {
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
		if err := symmetricSelfPass(ctx, c, f1.frags, &tick, consume); err != nil {
			return nil, err
		}
		return out, nil
	}
	for _, a := range f1.frags {
		for _, x := range f2.frags {
			if err := checkCtx(ctx, &tick); err != nil {
				return nil, err
			}
			if err := consume(joinCounted(c, a, x)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// frontierClosure is the one semi-naive loop behind the self-join and
// fixed-point family: starting from σ_sel(f), it joins each
// iteration's newly discovered fragments against the base set — older
// members have already met every element of it — keeping the results
// sel accepts, until an iteration adds nothing or maxIter iterations
// have run (0 means until empty). op labels the budget error.
func frontierClosure(ctx context.Context, c *obs.EvalCounters, f *Set, sel Selection, maxIter, maxFragments int, op string) (*Set, error) {
	base := f
	if !sel.IsZero() {
		base = f.Select(sel.Accepts)
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
		if !sel.Accepts(j) {
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
		// unordered pair is computed once. Later iterations join
		// freshly discovered frontiers that can never repeat a pair —
		// they join directly, in a loop written out here: calling
		// consume from this function is a direct call, while routing
		// it through a shared helper cost 5% on
		// BenchmarkFilteredFixedPoint.
		if iter == 0 {
			if err := symmetricSelfPass(ctx, c, base.Fragments(), &tick, consume); err != nil {
				return nil, err
			}
			frontier = next
			continue
		}
		for _, a := range frontier {
			for _, x := range base.Fragments() {
				if err := checkCtx(ctx, &tick); err != nil {
					return nil, err
				}
				if err := consume(joinCounted(c, a, x)); err != nil {
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
func SelfJoinTimesBounded(ctx context.Context, c *obs.EvalCounters, f *Set, n, maxFragments int) (*Set, error) {
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
	return frontierClosure(ctx, c, f, Selection{}, n-1, maxFragments, "self join")
}

// FixedPointBounded computes F⁺ with Theorem 1's iteration budget
// k = |⊖(F)| and a fragment budget. The ⊖ computation itself is
// O(|F|³) joins and not interrupted mid-way; its cost is bounded by
// the seed-set size, not the exponential expansion.
func FixedPointBounded(ctx context.Context, c *obs.EvalCounters, f *Set, maxFragments int) (*Set, error) {
	k := ReduceState(c, f).Len()
	if k < 1 {
		k = 1
	}
	return SelfJoinTimesBounded(ctx, c, f, k, maxFragments)
}

// FixedPointNaiveBounded computes F⁺ with fixed-point checking and a
// fragment budget.
func FixedPointNaiveBounded(ctx context.Context, c *obs.EvalCounters, f *Set, maxFragments int) (*Set, error) {
	return frontierClosure(ctx, c, f, Selection{}, 0, maxFragments, "fixed point")
}

// FilteredFixedPointBounded computes σ_Pa(F⁺) with push-down and a
// fragment budget, Pa being the selection sel. With a selective
// anti-monotonic selection the budget is rarely hit — which is the
// paper's optimization story.
func FilteredFixedPointBounded(ctx context.Context, c *obs.EvalCounters, f *Set, sel Selection, maxFragments int) (*Set, error) {
	return frontierClosure(ctx, c, f, sel, 0, maxFragments, "filtered fixed point")
}
