package core

import "repro/internal/xmltree"

// Bounds are the limits of the structural anti-monotonic filters of
// Section 3.3 — size(f) ≤ Size, height(f) ≤ Height, the document depth
// of f's deepest node ≤ Depth, and the pre-order span of f ≤ Width. A
// zero field leaves its dimension unbounded. Each measure is read off
// node labels (pre-order ID, depth, SubtreeEnd, the O(1) LCA), so the
// posting pre-filters and the join kernel can evaluate them without
// calling a predicate on a materialised fragment.
type Bounds struct {
	Size, Height, Depth, Width int
}

// Any reports whether at least one dimension is bounded.
func (b Bounds) Any() bool {
	return b.Size > 0 || b.Height > 0 || b.Depth > 0 || b.Width > 0
}

// Pairwise reports whether a dimension usable by the witness-pair
// lower bounds (everything except Depth, which prunes per group) is
// set.
func (b Bounds) Pairwise() bool {
	return b.Size > 0 || b.Height > 0 || b.Width > 0
}

// PairBound is the witness-pair lower bound of one group pair, the
// test the posting pre-filters (query's tree form, gindex's Dewey
// form) share. Any answer is connected and holds one witness a of the
// first group and one witness b of the second, hence their LCA l and
// both root-ward paths, which forces
//
//	size   ≥ depth(a) + depth(b) − 2·depth(l) + 1
//	height ≥ max(depth(a), depth(b)) − depth(l)
//	width  ≥ the pair's pre-order span
//
// Each measure's minimum over all witness pairs lower-bounds every
// answer independently, so the group pair proves the document empty
// exactly when some bounded minimum exceeds its bound. A minimum fits
// once one pair fits, so the test stops as soon as every bounded
// dimension has fitted some pair instead of scanning all |Wi|×|Wj|
// pairs.
type PairBound struct {
	b    Bounds
	open uint8 // bounded dimensions no pair has fitted yet
}

const (
	pairSize uint8 = 1 << iota
	pairHeight
	pairWidth
)

// PairBound starts the witness-pair lower bound of one group pair.
func (b Bounds) PairBound() PairBound {
	p := PairBound{b: b}
	if b.Size > 0 {
		p.open |= pairSize
	}
	if b.Height > 0 {
		p.open |= pairHeight
	}
	if b.Width > 0 {
		p.open |= pairWidth
	}
	return p
}

// Fit folds in one witness pair — depths da and db, LCA depth dl and
// the pre-order span, which the caller computes (the tree knows the
// LCA's ID, Dewey labels do not) — and reports whether every bounded
// dimension has now fitted a pair, after which no further pair can
// change the verdict.
func (p *PairBound) Fit(da, db, dl, span int) bool {
	if p.open&pairSize != 0 && da+db-2*dl+1 <= p.b.Size {
		p.open &^= pairSize
	}
	if p.open&pairHeight != 0 && max(da, db)-dl <= p.b.Height {
		p.open &^= pairHeight
	}
	if p.open&pairWidth != 0 && span <= p.b.Width {
		p.open &^= pairWidth
	}
	return p.open == 0
}

// Violated reports whether some bounded dimension fitted no pair: no
// answer can hold a witness of each group.
func (p PairBound) Violated() bool { return p.open != 0 }

// Admits reports whether f is within every bounded dimension.
func (b Bounds) Admits(f Fragment) bool {
	if b.Size > 0 && f.Size() > b.Size {
		return false
	}
	if b.Width > 0 && f.Width() > b.Width {
		return false
	}
	if b.Height > 0 && f.Height() > b.Height {
		return false
	}
	return b.Depth <= 0 || f.MaxDepth() <= b.Depth
}

// joinExceeds reports whether f1 ⋈ f2 lies outside b, deciding from
// the operands' labels without building the join (no node list, no
// merge, no hash). The verdict is exact — joinExceeds(f1, f2) equals
// !b.Admits(Join(f1, f2)) — which TestJoinExceedsIsExact checks on
// random trees. Let lo be the operand with the smaller root and hi the
// other; the join's root top and the nodes it adds follow from where
// hi's root sits:
//
//   - inside lo: the join is lo ∪ hi, rooted at lo's root;
//   - below lo's root but outside lo: lo and hi are disjoint, and the
//     join adds the path from hi's root up to the first node of lo,
//     rooted at lo's root;
//   - elsewhere: lo and hi lie in disjoint subtrees, and the join adds
//     the LCA l and both paths up to it, rooted at l:
//     |lo| + |hi| + depth(lo) + depth(hi) − 2·depth(l) − 1 nodes.
//
// Connecting-path nodes are ancestors of an operand root, so they
// neither deepen the join nor extend its span past the operands'
// largest IDs: width = max(last(lo), last(hi)) − top, and the deepest
// node is the deeper of the operands' deepest nodes.
func (b Bounds) joinExceeds(f1, f2 Fragment) bool {
	if f1.doc != f2.doc {
		panic("core: Join across documents")
	}
	lo, hi := f1, f2
	if hi.ids[0] < lo.ids[0] {
		lo, hi = hi, lo
	}
	d := lo.doc
	rl, rh := lo.ids[0], hi.ids[0]
	top := rl
	nested := d.IsAncestorOrSelf(rl, rh)
	if !nested {
		top = d.LCA(rl, rh)
	}
	if b.Width > 0 && int(max(lo.ids[len(lo.ids)-1], hi.ids[len(hi.ids)-1])-top) > b.Width {
		return true
	}
	if b.Size > 0 {
		n := len(lo.ids) + len(hi.ids)
		switch {
		case max(len(lo.ids), len(hi.ids)) > b.Size:
			return true
		case !nested:
			if n+d.Depth(rl)+d.Depth(rh)-2*d.Depth(top)-1 > b.Size {
				return true
			}
		case lo.Contains(rh):
			if n > b.Size && unionExceeds(lo.ids, hi.ids, b.Size) {
				return true
			}
		default:
			// hi hangs below lo: count the path from hi's root up to
			// the first member of lo, which exists because lo is
			// connected and holds hi's ancestor rl.
			for v := d.Parent(rh); n <= b.Size && !lo.Contains(v); v = d.Parent(v) {
				n++
			}
			if n > b.Size {
				return true
			}
		}
	}
	if b.Height > 0 || b.Depth > 0 {
		deepest := max(lo.MaxDepth(), hi.MaxDepth())
		if b.Depth > 0 && deepest > b.Depth {
			return true
		}
		if b.Height > 0 && deepest-d.Depth(top) > b.Height {
			return true
		}
	}
	return false
}

// unionExceeds reports whether the union of two sorted, duplicate-free
// ID lists has more than limit elements, stopping as soon as it does.
func unionExceeds(a, b []xmltree.NodeID, limit int) bool {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		if n++; n > limit {
			return true
		}
	}
	return n+len(a)-i+len(b)-j > limit
}

// Selection is the pushed-down filter of the evaluator-form join
// loops: a fragment passes when it is within Bounds and Keep accepts
// it (a nil Keep accepts everything, so the zero Selection keeps all).
// Bounds is what lets the loops bound before they build: a pair whose
// join falls outside Bounds is rejected from the operands' labels and
// never materialised, and a built join is asked only Keep.
type Selection struct {
	Bounds Bounds
	Keep   func(Fragment) bool
}

// Accepts reports whether f passes the selection.
func (s Selection) Accepts(f Fragment) bool {
	return s.Bounds.Admits(f) && (s.Keep == nil || s.Keep(f))
}

// IsZero reports whether s keeps every fragment.
func (s Selection) IsZero() bool {
	return !s.Bounds.Any() && s.Keep == nil
}
