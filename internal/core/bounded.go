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
// cancellation amortized (see checkCtx), and thread the per-evaluation
// *EvalState (counters + pair-join memo) through every fragment join.
// The query evaluator builds one EvalState per evaluation, so pairs
// re-joined across operators are served from the memo. The paper form
// of each operator (PairwiseJoin, FixedPoint, …) is the same loop run
// with no context, a fresh state and no budget.
//
// The filtered loops bound before they build: a pair whose join falls
// outside the selection's Bounds is decided from the operands' labels
// (Bounds.joinExceeds) and never materialised. It still counts as a
// join and a filter prune — the counter totals are those of building
// the join and filtering it — plus a label prune.

// labelTally counts the pairs one loop rejected from labels and
// charges them to the counters once, when the loop returns: mirrors
// are the commutative twins a symmetric pass consumes without
// recomputing (a memo hit each, as for built pairs).
type labelTally struct{ pairs, mirrors uint64 }

func (t *labelTally) flush(c *obs.EvalCounters) {
	if t.pairs == 0 {
		return
	}
	c.AddJoins(t.pairs + t.mirrors)
	c.AddFilterPrunes(t.pairs + t.mirrors)
	c.AddJoinMemoHits(t.mirrors)
	c.AddLabelPrunes(t.pairs)
}

// symmetricSelfPass runs the F × F join pass exploiting commutativity:
// each unordered pair is joined once and its mirror consumed again
// without recomputation. The mirror still counts as a logical join
// (Definition 4 was applied, just not recomputed) and as a join-memo
// hit, so counter totals are identical to the literal ordered loop.
// When the evaluation state's pair memo is already populated (⊖ ran
// first on the Theorem 1 path), the computed half is served from it
// too; otherwise the memo map is bypassed entirely — frontier pairs
// never repeat, so inserts would be pure overhead. A pair the memo
// cannot serve is checked against b from labels before it is built.
func symmetricSelfPass(ctx context.Context, st *EvalState, fs []Fragment, b Bounds, tally *labelTally, tick *int, consume func(Fragment) error) error {
	c := st.Counters()
	useMemo := st.MemoLen() > 0
	bounded := b.Any()
	for ai, a := range fs {
		for bi := ai; bi < len(fs); bi++ {
			if err := checkCtx(ctx, tick); err != nil {
				return err
			}
			var j Fragment
			hit := false
			if useMemo {
				j, hit = st.memoGet(a, fs[bi])
			}
			switch {
			case hit && bounded && !b.Admits(j):
				// Served from the memo but outside b: filtered like a
				// built join, mirror included.
				c.AddFilterPrunes(1)
				if bi != ai {
					c.AddJoins(1)
					c.AddJoinMemoHits(1)
					c.AddFilterPrunes(1)
				}
				continue
			case hit:
			case bounded && b.joinExceeds(a, fs[bi]):
				tally.pairs++
				if bi != ai {
					tally.mirrors++
				}
				continue
			default:
				j = joinCounted(c, a, fs[bi])
				if useMemo {
					st.memoPut(a, fs[bi], j)
				}
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
// the results sel accepts (the zero Selection keeps all), and aborts
// with ErrBudgetExceeded once the result would exceed maxFragments.
// With an anti-monotonic selection this is the push-down form licensed
// by Theorem 3: σ_Pa(F1 ⋈ F2) = σ_Pa(σ_Pa(F1) ⋈ σ_Pa(F2)); callers
// filter the inputs themselves and pass the same selection here.
func PairwiseJoinBounded(ctx context.Context, st *EvalState, f1, f2 *Set, sel Selection, maxFragments int) (*Set, error) {
	op := "pairwise join"
	if !sel.IsZero() {
		op = "filtered pairwise join"
	}
	c := st.Counters()
	c.AddPairwiseJoins(1)
	out := &Set{}
	tick := 0
	var tally labelTally
	defer tally.flush(c)
	keep := sel.Keep
	consume := func(j Fragment) error {
		if keep != nil && !keep(j) {
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
		if err := symmetricSelfPass(ctx, st, f1.frags, sel.Bounds, &tally, &tick, consume); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Distinct operands never repeat a pair: join directly, no memo.
	b, bounded := sel.Bounds, sel.Bounds.Any()
	for _, a := range f1.frags {
		for _, x := range f2.frags {
			if err := checkCtx(ctx, &tick); err != nil {
				return nil, err
			}
			if bounded && b.joinExceeds(a, x) {
				tally.pairs++
				continue
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
func frontierClosure(ctx context.Context, st *EvalState, f *Set, sel Selection, maxIter, maxFragments int, op string) (*Set, error) {
	c := st.Counters()
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
	var tally labelTally
	defer tally.flush(c)
	b, bounded, keep := sel.Bounds, sel.Bounds.Any(), sel.Keep
	var next []Fragment // fragments first seen in the current iteration
	consume := func(j Fragment) error {
		if keep != nil && !keep(j) {
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
			if err := symmetricSelfPass(ctx, st, base.Fragments(), b, &tally, &tick, consume); err != nil {
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
				if bounded && b.joinExceeds(a, x) {
					tally.pairs++
					continue
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
	return frontierClosure(ctx, st, f, Selection{}, n-1, maxFragments, "self join")
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
	return frontierClosure(ctx, st, f, Selection{}, 0, maxFragments, "fixed point")
}

// FilteredFixedPointBounded computes σ_Pa(F⁺) with push-down and a
// fragment budget, Pa being the selection sel. With a selective
// anti-monotonic selection the budget is rarely hit — which is the
// paper's optimization story.
func FilteredFixedPointBounded(ctx context.Context, st *EvalState, f *Set, sel Selection, maxFragments int) (*Set, error) {
	return frontierClosure(ctx, st, f, sel, 0, maxFragments, "filtered fixed point")
}
