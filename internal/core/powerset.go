package core

import (
	"fmt"
	"sort"
)

// maxLiteralPowerset bounds the literal Definition 6 enumeration:
// 2^|F1|·2^|F2| subset pairs explode quickly, and the literal form
// exists to validate the optimized ones, not to run at scale.
const maxLiteralPowerset = 22

// PowersetJoin computes F1 ⋈* F2 (Definition 6) by literally
// enumerating every pair of non-empty subsets F1' ⊆ F1, F2' ⊆ F2 and
// joining all their members: { ⋈(F1' ∪ F2') }. Its cost is
// Θ(2^|F1|+|F2|); it returns an error when |F1|+|F2| exceeds an
// implementation bound. Use PowersetJoinFixedPoint (Theorem 2) for
// anything but small inputs — their equivalence is property-tested.
func PowersetJoin(f1, f2 *Set) (*Set, error) {
	n1, n2 := f1.Len(), f2.Len()
	if n1+n2 > maxLiteralPowerset {
		return nil, fmt.Errorf("core: literal powerset join of %d+%d fragments exceeds bound %d (use PowersetJoinFixedPoint)", n1, n2, maxLiteralPowerset)
	}
	out := &Set{}
	if n1 == 0 || n2 == 0 {
		return out, nil
	}
	var members []Fragment
	for m1 := 1; m1 < 1<<n1; m1++ {
		for m2 := 1; m2 < 1<<n2; m2++ {
			members = members[:0]
			for i := 0; i < n1; i++ {
				if m1&(1<<i) != 0 {
					members = append(members, f1.At(i))
				}
			}
			for i := 0; i < n2; i++ {
				if m2&(1<<i) != 0 {
					members = append(members, f2.At(i))
				}
			}
			out.Add(JoinAll(members))
		}
	}
	return out, nil
}

// PowersetJoinFixedPoint computes F1 ⋈* F2 through the Theorem 2
// equivalence F1 ⋈* F2 = F1⁺ ⋈ F2⁺, with each fixed point obtained in
// |⊖(F)| iterations per Theorem 1.
func PowersetJoinFixedPoint(f1, f2 *Set) *Set {
	return PairwiseJoin(FixedPoint(f1), FixedPoint(f2))
}

// Candidate is one row of a powerset-join trace: a candidate fragment
// set (a distinct union F1' ∪ F2' of non-empty operand subsets), the
// fragment its n-ary join produces, and bookkeeping flags matching the
// columns of the paper's Table 1.
type Candidate struct {
	// Inputs is the candidate fragment set to be joined, in canonical
	// order.
	Inputs []Fragment
	// Result is ⋈(Inputs).
	Result Fragment
	// Duplicate marks rows whose Result was already produced by an
	// earlier (smaller or earlier-ordered) candidate set — the paper's
	// "to be removed" column.
	Duplicate bool
	// Filtered marks rows whose Result fails the selection predicate —
	// the paper's "irrelevant (to be filtered)" column. Only set when a
	// trace predicate is supplied.
	Filtered bool
}

// PowersetJoinTrace enumerates the distinct candidate fragment sets of
// F1 ⋈* F2 (the "unique pairwise unions" of Section 4.1), joins each,
// and flags duplicates and — if pred is non-nil — filtered rows. The
// union F1' ∪ F2' of non-empty operand subsets ranges exactly over the
// subsets of the pool F1 ∪ F2 that intersect both operands, so the
// enumeration works on the deduplicated pool. Rows are ordered by
// candidate-set size, then lexicographically, which reproduces
// Table 1's content exactly (the paper lists unique rows before
// duplicates; use SortCandidatesPaperStyle for that layout).
//
// Like PowersetJoin it is exponential and bounded; it exists for the
// brute-force strategy, for tests and for the Table 1 reproduction.
func PowersetJoinTrace(f1, f2 *Set, pred func(Fragment) bool) ([]Candidate, error) {
	if f1.Len() == 0 || f2.Len() == 0 {
		return nil, nil
	}
	return MultiPowersetJoinTrace(nil, nil, []*Set{f1, f2}, pred)
}

// SortCandidatesPaperStyle reorders trace rows the way Table 1 lays
// them out: unique rows first (unfiltered before filtered), then
// duplicate rows, preserving the size-then-lexicographic order within
// each group.
func SortCandidatesPaperStyle(rows []Candidate) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Duplicate != rows[j].Duplicate {
			return !rows[i].Duplicate
		}
		return !rows[i].Filtered && rows[j].Filtered
	})
}
