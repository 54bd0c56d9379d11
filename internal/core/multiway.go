package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// MultiPowersetJoin generalizes the powerset fragment join to m ≥ 1
// operand sets: it yields ⋈(F1' ∪ … ∪ Fm') for every choice of
// non-empty subsets Fi' ⊆ Fi, evaluated literally. Definition 6 is the
// m = 2 case; the m-ary form is well defined because pairwise join is
// associative and commutative. Exponential and bounded like
// PowersetJoin; use MultiPowersetJoinFixedPoint for real inputs.
func MultiPowersetJoin(sets []*Set) (*Set, error) {
	rows, err := MultiPowersetJoinTrace(nil, nil, sets, nil)
	if err != nil {
		return nil, err
	}
	out := &Set{}
	for _, r := range rows {
		out.Add(r.Result)
	}
	return out, nil
}

// MultiPowersetJoinFixedPoint computes the m-ary powerset join through
// the Theorem 2 equivalence, extended associatively:
// F1 ⋈* … ⋈* Fm = F1⁺ ⋈ … ⋈ Fm⁺. The extension is sound because
// F1⁺ ⋈ F2⁺ is itself closed under fragment join, so taking its fixed
// point again adds nothing.
func MultiPowersetJoinFixedPoint(sets []*Set) *Set {
	if len(sets) == 0 {
		return &Set{}
	}
	acc := FixedPoint(sets[0])
	for _, s := range sets[1:] {
		acc = PairwiseJoin(acc, FixedPoint(s))
	}
	return acc
}

// MultiPowersetJoinTrace generalizes PowersetJoinTrace to m operand
// sets: one row per distinct candidate union intersecting every
// operand, ordered by candidate size then lexicographically, flagging
// duplicates and — if pred is non-nil — filtered rows. The joins and
// one powerset expansion per candidate row count toward c (nil-safe).
// The candidate enumeration — the literal exponential loop of
// Definition 6 — polls ctx once per row and once per amortized batch
// of member joins.
func MultiPowersetJoinTrace(ctx context.Context, c *obs.EvalCounters, sets []*Set, pred func(Fragment) bool) ([]Candidate, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	pool := &Set{}
	for _, s := range sets {
		if s.Len() == 0 {
			return nil, nil
		}
		pool.AddAll(s)
	}
	np := pool.Len()
	if np > maxLiteralPowerset {
		return nil, fmt.Errorf("core: powerset trace pool of %d fragments exceeds bound %d", np, maxLiteralPowerset)
	}
	operandMasks := make([]uint64, len(sets))
	for si, s := range sets {
		for i := 0; i < np; i++ {
			if s.Contains(pool.At(i)) {
				operandMasks[si] |= 1 << i
			}
		}
	}
	// Enumerate candidate masks directly in presentation order —
	// ascending popcount, then ascending numeric value — via Gosper's
	// hack (next same-popcount permutation), instead of collecting all
	// 2^np masks and sorting them: the enumeration itself is the
	// exponential step, so it must poll ctx, and a monolithic
	// post-enumeration sort would stall cancellation for seconds on
	// large pools.
	tick := 0
	var masks []uint64
	for size := 1; size <= np; size++ {
		for m := uint64(1)<<size - 1; m < 1<<np; {
			if err := checkCtx(ctx, &tick); err != nil {
				return nil, err
			}
			ok := true
			for _, om := range operandMasks {
				if m&om == 0 {
					ok = false
					break
				}
			}
			if ok {
				masks = append(masks, m)
			}
			lsb := m & -m
			r := m + lsb
			m = (((r ^ m) >> 2) / lsb) | r
		}
	}
	seen := &Set{}
	rows := make([]Candidate, 0, len(masks))
	for _, m := range masks {
		if err := checkCtx(ctx, &tick); err != nil {
			return nil, err
		}
		c.AddPowersetExpansions(1)
		var inputs []Fragment
		for i := 0; i < np; i++ {
			if m&(1<<i) != 0 {
				inputs = append(inputs, pool.At(i))
			}
		}
		res := joinAllCounted(c, inputs)
		c.AddDedupProbes(1)
		row := Candidate{Inputs: inputs, Result: res, Duplicate: !seen.Add(res)}
		if pred != nil {
			row.Filtered = !pred(res)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
