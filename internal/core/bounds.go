package core

// Bounds are the limits of the structural anti-monotonic filters of
// Section 3.3 — size(f) ≤ Size, height(f) ≤ Height, the document depth
// of f's deepest node ≤ Depth, and the pre-order span of f ≤ Width. A
// zero field leaves its dimension unbounded. Each measure is read off
// node labels (pre-order ID, depth, SubtreeEnd, the O(1) LCA), so the
// posting pre-filters and the enumerator can evaluate them without
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

// Selection is the pushed-down filter of the evaluator-form join loops
// and of the enumerator: a fragment passes when it is within Bounds and
// Keep accepts it (a nil Keep accepts everything, so the zero Selection
// keeps all). The join loops build every pair and ask Accepts. The
// enumerator is why Bounds is kept apart from Keep: it rejects a
// partial subtree outside Bounds from its labels before copying its
// IDs, and asks Keep only of the partials it copies.
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
