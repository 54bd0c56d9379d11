// Package filter provides selection predicates ("filters", Definition 3)
// over document fragments, classified by the anti-monotonic property of
// Definition 11: P is anti-monotonic iff P(f) implies P(f′) for every
// sub-fragment f′ ⊆ f. Selections with anti-monotonic filters commute
// with fragment joins (Theorem 3) and may be pushed below them; other
// filters may only run after the joins.
//
// Conjunction and disjunction preserve anti-monotonicity; negation does
// not (Section 3.3), which the constructors encode in the returned
// filter's AntiMonotonic flag.
package filter

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Filter is a named selection predicate over fragments.
type Filter struct {
	// Name describes the filter, e.g. "size<=3".
	Name string
	// AntiMonotonic declares the Definition 11 property. The query
	// planner trusts this flag when deciding whether the filter may be
	// pushed below join operations, so constructors must only set it
	// when the property provably holds.
	AntiMonotonic bool
	// Pred maps a fragment to true (keep) or false (discard).
	Pred func(core.Fragment) bool
	// Kind and Limit expose the numeric bound of the structural
	// anti-monotonic filters (size/height/depth/width ≤ N) so the
	// posting-level pre-filters can evaluate them by label arithmetic
	// without calling Pred on materialized fragments. BoundNone for
	// every other filter.
	Kind  BoundKind
	Limit int
}

// BoundKind classifies the structural bound a filter carries, if any.
type BoundKind int

const (
	// BoundNone: the filter exposes no posting-evaluable bound.
	BoundNone BoundKind = iota
	// BoundMaxSize: size(f) ≤ Limit.
	BoundMaxSize
	// BoundMaxHeight: height(f) ≤ Limit.
	BoundMaxHeight
	// BoundMaxDepth: document depth of f's deepest node ≤ Limit.
	BoundMaxDepth
	// BoundMaxWidth: pre-order span of f ≤ Limit.
	BoundMaxWidth
)

// BoundsOf extracts the tightest limit per dimension from the given
// clauses as the join kernel's core.Bounds, so the limits a query
// pushes reach the filtered join loops unchanged. A zero field means
// "unbounded" for that dimension (no such clause present). All limits
// come from anti-monotonic clauses, so a fragment set that provably
// violates one has a provably empty answer. Non-structural clauses
// (and clauses whose constructors predate the Kind field) contribute
// nothing, and neither does a limit below 1: core.Bounds reads 0 as
// unbounded, so such a clause has no Bounds form (InBounds reports
// which clauses do).
func BoundsOf(clauses ...Filter) core.Bounds {
	var b core.Bounds
	tighten := func(cur *int, limit int) {
		if *cur == 0 || limit < *cur {
			*cur = limit
		}
	}
	for _, f := range clauses {
		if !f.InBounds() {
			continue
		}
		switch f.Kind {
		case BoundMaxSize:
			tighten(&b.Size, f.Limit)
		case BoundMaxHeight:
			tighten(&b.Height, f.Limit)
		case BoundMaxDepth:
			tighten(&b.Depth, f.Limit)
		case BoundMaxWidth:
			tighten(&b.Width, f.Limit)
		}
	}
	return b
}

// InBounds reports whether f is a structural bound that BoundsOf
// carries: a core.Bounds holding it decides f exactly, from labels.
func (f Filter) InBounds() bool { return f.Kind != BoundNone && f.Limit > 0 }

// evalRank orders clauses by expected evaluation cost: structural
// bound checks (size/height/depth/width ≤ N) are O(1) label
// arithmetic, other anti-monotonic clauses are cheap structural
// predicates, and everything else (content predicates, composites) may
// walk the fragment.
func (f Filter) evalRank() int {
	switch {
	case f.Kind != BoundNone:
		return 0
	case f.AntiMonotonic:
		return 1
	default:
		return 2
	}
}

// OrderCheapFirst returns the clauses reordered for short-circuit
// conjunction evaluation: constant-time structural bounds first, then
// remaining anti-monotonic clauses, then the rest. The sort is stable,
// and an already-ordered list is returned as-is without copying.
// Sound for any conjunction — reordering ∧ is the planner's simplest
// algebraic rewrite — but callers that render clause lists should keep
// the original order for display.
func OrderCheapFirst(fs []Filter) []Filter {
	ordered := true
	for i := 1; i < len(fs); i++ {
		if fs[i].evalRank() < fs[i-1].evalRank() {
			ordered = false
			break
		}
	}
	if ordered {
		return fs
	}
	out := make([]Filter, 0, len(fs))
	for rank := 0; rank <= 2; rank++ {
		for _, f := range fs {
			if f.evalRank() == rank {
				out = append(out, f)
			}
		}
	}
	return out
}

// Apply evaluates the predicate; a zero-valued Filter accepts
// everything.
func (f Filter) Apply(frag core.Fragment) bool {
	if f.Pred == nil {
		return true
	}
	return f.Pred(frag)
}

// IsZero reports whether f is the trivial accept-all filter.
func (f Filter) IsZero() bool { return f.Pred == nil }

// String returns the filter's name.
func (f Filter) String() string {
	if f.Name == "" {
		return "true"
	}
	return f.Name
}

// True is the filter that accepts every fragment. It is (vacuously)
// anti-monotonic.
func True() Filter {
	return Filter{Name: "true", AntiMonotonic: true, Pred: func(core.Fragment) bool { return true }}
}

// MaxSize returns the anti-monotonic filter size(f) ≤ β of
// Section 3.3.1: fragments with more than β nodes are discarded, and a
// sub-fragment never has more nodes than its super-fragment.
func MaxSize(beta int) Filter {
	return Filter{
		Name:          fmt.Sprintf("size<=%d", beta),
		AntiMonotonic: true,
		Pred:          func(f core.Fragment) bool { return f.Size() <= beta },
		Kind:          BoundMaxSize,
		Limit:         beta,
	}
}

// MaxHeight returns the anti-monotonic filter height(f) ≤ h of
// Section 3.3.2: height is the vertical distance between the
// fragment's root and its farthest node.
func MaxHeight(h int) Filter {
	return Filter{
		Name:          fmt.Sprintf("height<=%d", h),
		AntiMonotonic: true,
		Pred:          func(f core.Fragment) bool { return f.Height() <= h },
		Kind:          BoundMaxHeight,
		Limit:         h,
	}
}

// MaxWidth returns the anti-monotonic filter width(f) ≤ w, where width
// is the horizontal distance between the fragment's extreme (leftmost
// and rightmost) nodes measured as pre-order span (Section 3.3.2's
// horizontal-distance filter).
func MaxWidth(w int) Filter {
	return Filter{
		Name:          fmt.Sprintf("width<=%d", w),
		AntiMonotonic: true,
		Pred:          func(f core.Fragment) bool { return f.Width() <= w },
		Kind:          BoundMaxWidth,
		Limit:         w,
	}
}

// MaxLeaves returns the anti-monotonic filter on the number of
// fragment leaves — effectively the number of distinct "branches" an
// answer stitches together (each keyword witness typically sits on
// its own branch). Anti-monotonicity holds because the leaves of a
// sub-fragment occupy pairwise-disjoint subtrees, each containing at
// least one leaf of the super-fragment, giving an injection from
// sub-fragment leaves to fragment leaves; the property test exercises
// this.
func MaxLeaves(n int) Filter {
	return Filter{
		Name:          fmt.Sprintf("leaves<=%d", n),
		AntiMonotonic: true,
		Pred:          func(f core.Fragment) bool { return len(f.Leaves()) <= n },
	}
}

// MaxDepth returns the anti-monotonic filter on the document depth of
// the fragment's deepest node. Every node of a sub-fragment is a node
// of the fragment, so the maximum can only shrink.
func MaxDepth(d int) Filter {
	return Filter{
		Name:          fmt.Sprintf("depth<=%d", d),
		AntiMonotonic: true,
		Pred:          func(f core.Fragment) bool { return f.MaxDepth() <= d },
		Kind:          BoundMaxDepth,
		Limit:         d,
	}
}

// HasKeyword returns the basic keyword-selection filter 'keyword = k'
// of Definition 3: it accepts fragments containing term in some node's
// keywords. Note it is NOT anti-monotonic — a sub-fragment may omit
// the node carrying the keyword — so it cannot be pushed below joins;
// keyword selection instead happens at the leaves of the evaluation
// tree, on single-node fragments (Section 2.3).
func HasKeyword(term string) Filter {
	return Filter{
		Name:          fmt.Sprintf("keyword=%s", term),
		AntiMonotonic: false,
		Pred:          func(f core.Fragment) bool { return f.HasKeyword(term) },
	}
}

// MinSize returns the filter size(f) > β — the paper's first example of
// a filter WITHOUT the anti-monotonic property (Section 3.4).
func MinSize(beta int) Filter {
	return Filter{
		Name:          fmt.Sprintf("size>%d", beta),
		AntiMonotonic: false,
		Pred:          func(f core.Fragment) bool { return f.Size() > beta },
	}
}

// EqualDepth returns the paper's 'equal depth filter' (Section 3.4,
// Figure 7): it accepts fragments in which every node carrying k1 sits
// at the same document depth as some node carrying k2 and vice versa.
// It looks practically useful but is NOT anti-monotonic: removing the
// equal-depth witness from a satisfying fragment can leave a
// sub-fragment that fails.
func EqualDepth(k1, k2 string) Filter {
	return Filter{
		Name:          fmt.Sprintf("equaldepth(%s,%s)", k1, k2),
		AntiMonotonic: false,
		Pred: func(f core.Fragment) bool {
			d1 := keywordDepths(f, k1)
			d2 := keywordDepths(f, k2)
			if len(d1) == 0 || len(d2) == 0 {
				return false
			}
			for d := range d1 {
				if !d2[d] {
					return false
				}
			}
			for d := range d2 {
				if !d1[d] {
					return false
				}
			}
			return true
		},
	}
}

func keywordDepths(f core.Fragment, term string) map[int]bool {
	doc := f.Document()
	var depths map[int]bool
	for _, id := range f.IDs() {
		if doc.HasKeyword(id, term) {
			if depths == nil {
				depths = make(map[int]bool)
			}
			depths[doc.Depth(id)] = true
		}
	}
	return depths
}

// LeafWitness returns the strict Definition 8 condition: every query
// term must occur in keywords(n) of some LEAF of the fragment. The
// paper's own Table 1 does not enforce this (its row 3, ⟨n16,n18⟩,
// carries 'optimization' only on its root), so the evaluator follows
// the operational Section 2.3 formula by default; users wanting
// Definition 8 verbatim add this as a residual filter. It is not
// anti-monotonic: removing nodes can turn an interior witness into a
// leaf, so a failing fragment may have passing sub-fragments and vice
// versa.
func LeafWitness(terms ...string) Filter {
	return Filter{
		Name:          fmt.Sprintf("leafwitness(%s)", strings.Join(terms, ",")),
		AntiMonotonic: false,
		Pred: func(f core.Fragment) bool {
			for _, t := range terms {
				if !f.HasKeywordOnLeaf(t) {
					return false
				}
			}
			return true
		},
	}
}

// And returns the conjunction P1 ∧ P2 ∧ …; it is anti-monotonic iff
// every conjunct is (Section 3.3). And() with no arguments is True().
func And(fs ...Filter) Filter {
	if len(fs) == 0 {
		return True()
	}
	if len(fs) == 1 {
		return fs[0]
	}
	anti := true
	names := make([]string, len(fs))
	for i, f := range fs {
		anti = anti && f.AntiMonotonic
		names[i] = f.String()
	}
	return Filter{
		Name:          "(" + strings.Join(names, " AND ") + ")",
		AntiMonotonic: anti,
		Pred: func(frag core.Fragment) bool {
			for _, f := range fs {
				if !f.Apply(frag) {
					return false
				}
			}
			return true
		},
	}
}

// Or returns the disjunction P1 ∨ P2 ∨ …; it is anti-monotonic iff
// every disjunct is (Section 3.3). Or() with no arguments is the
// reject-all filter.
func Or(fs ...Filter) Filter {
	if len(fs) == 1 {
		return fs[0]
	}
	anti := true
	names := make([]string, len(fs))
	for i, f := range fs {
		anti = anti && f.AntiMonotonic
		names[i] = f.String()
	}
	return Filter{
		Name:          "(" + strings.Join(names, " OR ") + ")",
		AntiMonotonic: anti && len(fs) > 0,
		Pred: func(frag core.Fragment) bool {
			for _, f := range fs {
				if f.Apply(frag) {
					return true
				}
			}
			return false
		},
	}
}

// Not returns the negation of f. Negation does not preserve
// anti-monotonicity (Section 3.3), so the result is always marked
// non-anti-monotonic and will never be pushed below joins.
func Not(f Filter) Filter {
	return Filter{
		Name:          "NOT " + f.String(),
		AntiMonotonic: false,
		Pred:          func(frag core.Fragment) bool { return !f.Apply(frag) },
	}
}
