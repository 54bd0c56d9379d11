package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

// MaxEnumerateGroups is the most witness groups EnumerateAnswers
// accepts: a partial subtree carries the groups it covers as a 64-bit
// mask. Queries with more groups evaluate by push-down instead.
const MaxEnumerateGroups = 64

// EnumerateAnswers returns the answer set of a keyword query directly,
// without fixed points, pairwise joins or a dedup table.
// groups[i] lists the witness nodes of group i (the nodes seeding Fi);
// the result is σ_sel(F1⁺ ⋈ … ⋈ Fm⁺), the set push-down computes under
// the same selection.
//
// It rests on one characterisation (DESIGN §3, "Answers are closed
// witness sets"). A fragment of Fi⁺ is the Steiner tree of a non-empty
// subset of Wi, so with W the union of the groups, f is in
// F1⁺ ⋈ … ⋈ Fm⁺ exactly when f = Steiner(W ∩ f) and f holds a witness
// of every group. f = Steiner(W ∩ f) holds exactly when f is connected,
// every leaf of f is a witness, and f's root is a witness or has at
// least two children in f.
//
// The enumeration is one bottom-up pass over the ancestors of the
// witnesses, in descending pre-order. For each node v it keeps the
// connected subtrees rooted at v whose leaves are all witnesses — the
// partials — extending v's subtrees child by child with each child's
// partials. Child IDs follow every ID already in the subtree, so an
// extension is an append and the IDs stay sorted. A partial that breaks
// sel.Bounds is rejected from its labels (size, deepest node, last ID)
// before its IDs are copied, and a partial sel.Keep rejects is dropped.
// Both are anti-monotonic, and a partial is a sub-fragment of every
// answer built from it, so nothing dropped could have grown into an
// answer.
// A partial is emitted when it covers every group and satisfies the
// root rule. Distinct child choices give distinct subtrees, so each
// answer is produced exactly once.
//
// EnumerateAnswers is EnumerateEach collecting the answers into a
// Set, for explain, the forced strategies and tests. It copies every
// answer's IDs into one buffer and sizes the Set once; every answer is
// distinct, so no insertion meets a duplicate.
func EnumerateAnswers(ctx context.Context, c *obs.EvalCounters, doc *xmltree.Document, groups [][]xmltree.NodeID, sel Selection, budget int) (*Set, error) {
	var (
		found   []xmltree.NodeID
		emitted []Fragment
	)
	err := EnumerateEach(ctx, c, doc, groups, sel, budget, func(f Fragment) error {
		found = append(found, f.ids...)
		emitted = append(emitted, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Set{frags: make([]Fragment, 0, len(emitted))}
	out.growTable(tableSizeFor(len(emitted)))
	off := 0
	for _, f := range emitted {
		n := len(f.ids)
		f.ids = found[off : off+n : off+n]
		off += n
		out.Add(f)
	}
	return out, nil
}

// EnumerateEach calls emit once per answer of σ_sel(F1⁺ ⋈ … ⋈ Fm⁺),
// as EnumerateAnswers describes, without building a set: each answer is
// handed over the moment the pass forms it. The fragment emit receives
// is transient — its IDs live in a buffer the enumeration reuses, so
// emit must copy whatever it keeps — and an error from emit stops the
// enumeration and is returned.
//
// sel.Keep is likewise called on transient fragments and must not
// retain its argument. Every partial formed counts as an enum node and
// every rejection as an enum prune; no join is counted. budget caps
// the partials held at once and the answers (ErrBudgetExceeded), and
// ctx is polled amortized. The arena, stacks, witness and ancestor
// buffers are reused from earlier calls and kept for later ones.
func EnumerateEach(ctx context.Context, c *obs.EvalCounters, doc *xmltree.Document, groups [][]xmltree.NodeID, sel Selection, budget int, emit func(Fragment) error) error {
	if len(groups) == 0 || len(groups) > MaxEnumerateGroups {
		return fmt.Errorf("core: enumeration takes 1 to %d groups, got %d", MaxEnumerateGroups, len(groups))
	}
	e := getEnumerator()
	e.ctx, e.doc, e.sel, e.budget = ctx, doc, sel, budget
	e.full = ^uint64(0) >> (64 - len(groups))
	defer e.release(c)
	wit := e.witnesses(groups)
	var covered uint64
	for _, w := range wit {
		covered |= w.mask
	}
	if covered != e.full {
		return nil
	}
	rel := e.ancestors(wit)
	wi := len(wit) - 1
	for i := len(rel) - 1; i >= 0; i-- {
		v := rel[i]
		for wi >= 0 && wit[wi].id > v {
			wi--
		}
		var mask uint64
		if wi >= 0 && wit[wi].id == v {
			mask = wit[wi].mask
		}
		if err := e.visit(v, mask, emit); err != nil {
			return err
		}
	}
	return nil
}

// idleEnumerators holds enumerators between calls, so the scratch
// buffers of one evaluation serve the next instead of being allocated
// per document. It is a buffered channel rather than a sync.Pool so
// that reuse is deterministic: a GC empties a Pool and the race
// detector makes it drop items at random, and the allocation pins
// must hold in every build. 32 covers the evaluations a busy server
// runs at once (shards × search workers on a few cores); an
// enumerator released beyond that is dropped.
var idleEnumerators = make(chan *enumerator, 32)

// maxPooledScratch bounds the buffers an enumerator may keep when it
// goes idle: one pathological document must not pin its peak scratch
// for the process lifetime.
const maxPooledScratch = 1 << 14

func getEnumerator() *enumerator {
	select {
	case e := <-idleEnumerators:
		return e
	default:
		return new(enumerator)
	}
}

// release adds the pass's counts to c and returns the enumerator to
// the idle list with its buffers emptied and its references dropped.
func (e *enumerator) release(c *obs.EvalCounters) {
	c.AddEnumNodes(e.nodes)
	c.AddEnumPrunes(e.prunes)
	if max(cap(e.arena), cap(e.parts), cap(e.rel), cap(e.wit)) > maxPooledScratch {
		return
	}
	*e = enumerator{arena: e.arena[:0], parts: e.parts[:0], stack: e.stack[:0], wit: e.wit[:0], rel: e.rel[:0]}
	select {
	case idleEnumerators <- e:
	default:
	}
}

// partial is one connected subtree whose leaves are all witnesses,
// rooted at the node it was built for. Its IDs are arena[off:off+n].
type partial struct {
	off, n   int32
	mask     uint64 // the groups it holds a witness of
	maxDepth int32  // depth of its deepest node
	kids     int32  // children of its root inside it
}

// pending is a visited node whose partials wait for its parent's
// visit: parts[first:] up to the next entry's first.
type pending struct {
	node  xmltree.NodeID
	first int
}

// witness is one node of W with the groups it witnesses.
type witness struct {
	id   xmltree.NodeID
	mask uint64
}

type enumerator struct {
	ctx    context.Context
	doc    *xmltree.Document
	sel    Selection
	budget int
	full   uint64

	// arena holds the IDs of every live partial; parts and stack are
	// stacks in visit order, so a node's visit consumes its children's
	// partials from the top and compacts its own down over them.
	arena []xmltree.NodeID
	parts []partial
	stack []pending

	// wit and rel back the witness list and the ancestor list.
	wit []witness
	rel []xmltree.NodeID

	answers, nodes, prunes uint64
	tick                   int
}

// witnesses merges the groups into W sorted by ID, each node carrying
// the mask of the groups it witnesses. A witness deeper than the depth
// bound can be in no answer and is dropped.
func (e *enumerator) witnesses(groups [][]xmltree.NodeID) []witness {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	wit := slices.Grow(e.wit[:0], n)
	for i, g := range groups {
		for _, id := range g {
			if e.sel.Bounds.Depth > 0 && e.doc.Depth(id) > e.sel.Bounds.Depth {
				continue
			}
			wit = append(wit, witness{id: id, mask: 1 << i})
		}
	}
	slices.SortFunc(wit, func(a, b witness) int { return int(a.id) - int(b.id) })
	out := wit[:0]
	for _, w := range wit {
		if k := len(out) - 1; k >= 0 && out[k].id == w.id {
			out[k].mask |= w.mask
			continue
		}
		out = append(out, w)
	}
	e.wit = out
	return out
}

// ancestors returns, sorted, the nodes an answer can contain: every
// node of an answer lies on the path from its root down to a witness
// leaf, so only ancestors-or-self of witnesses qualify, and only those
// whose path down to the witness fits the size, height and width
// bounds.
func (e *enumerator) ancestors(wit []witness) []xmltree.NodeID {
	b := e.sel.Bounds
	up := -1 // levels above a witness still admissible; -1 is unbounded
	if b.Size > 0 {
		up = b.Size - 1
	}
	if b.Height > 0 && (up < 0 || b.Height < up) {
		up = b.Height
	}
	rel := slices.Grow(e.rel[:0], 2*len(wit))
	for _, w := range wit {
		for a, k := w.id, 0; ; k++ {
			rel = append(rel, a)
			if k == up {
				break
			}
			if a = e.doc.Parent(a); a == xmltree.InvalidNode || (b.Width > 0 && int(w.id-a) > b.Width) {
				break
			}
		}
	}
	slices.Sort(rel)
	e.rel = slices.Compact(rel)
	return e.rel
}

// visit builds the partials rooted at v from its children's, emits the
// answers among them through emit and leaves on the stack those its parent can
// still extend. mask is v's witness mask (0 when v is no witness).
func (e *enumerator) visit(v xmltree.NodeID, mask uint64, emit func(Fragment) error) error {
	if err := checkCtx(e.ctx, &e.tick); err != nil {
		return err
	}
	d := e.doc
	end := d.SubtreeEnd(v)
	k := len(e.stack)
	for k > 0 && e.stack[k-1].node <= end {
		k--
	}
	// Everything pending inside v's subtree is consumed here; entries
	// whose parent is not v were stranded by the bounds and are dropped.
	low, arenaLow := len(e.parts), len(e.arena)
	if k < len(e.stack) {
		low = e.stack[k].first
		arenaLow = int(e.parts[low].off)
	}
	top := len(e.parts)
	dv := int32(d.Depth(v))
	e.nodes++
	if !e.admitRoot(v, dv) {
		e.prunes++
		e.truncate(low, arenaLow, k)
		return nil
	}
	e.arena = append(e.arena, v)
	e.parts = append(e.parts, partial{off: int32(len(e.arena) - 1), n: 1, mask: mask, maxDepth: dv})
	b := e.sel.Bounds
	for ci := len(e.stack) - 1; ci >= k; ci-- {
		c := e.stack[ci]
		if d.Parent(c.node) != v {
			continue
		}
		cEnd := top
		if ci+1 < len(e.stack) {
			cEnd = e.stack[ci+1].first
		}
		for li, ln := top, len(e.parts); li < ln; li++ {
			it := e.parts[li]
			for pi := c.first; pi < cEnd; pi++ {
				if err := checkCtx(e.ctx, &e.tick); err != nil {
					return err
				}
				t := e.parts[pi]
				e.nodes++
				n := it.n + t.n
				md := max(it.maxDepth, t.maxDepth)
				last := e.arena[t.off+t.n-1]
				if (b.Size > 0 && int(n) > b.Size) || (b.Height > 0 && int(md-dv) > b.Height) || (b.Width > 0 && int(last-v) > b.Width) {
					e.prunes++
					continue
				}
				off := len(e.arena)
				e.arena = append(e.arena, e.arena[it.off:it.off+it.n]...)
				e.arena = append(e.arena, e.arena[t.off:t.off+t.n]...)
				if e.sel.Keep != nil && !e.sel.Keep(Fragment{doc: d, ids: e.arena[off:]}) {
					e.prunes++
					e.arena = e.arena[:off]
					continue
				}
				e.parts = append(e.parts, partial{off: int32(off), n: n, mask: it.mask | t.mask, maxDepth: md, kids: it.kids + 1})
				if len(e.parts) > e.budget {
					return budgetError("enumerate", e.budget)
				}
			}
		}
	}
	// Emit, then compact what the parent can extend down over the
	// consumed children. Sources never lie below their destinations.
	p := d.Parent(v)
	w, aw := low, arenaLow
	for li := top; li < len(e.parts); li++ {
		it := e.parts[li]
		if it.kids == 0 && mask == 0 {
			continue // a bare non-witness: a leaf that is no witness
		}
		if it.mask == e.full && (mask != 0 || it.kids >= 2) {
			if err := e.emit(it, emit); err != nil {
				return err
			}
		}
		if p == xmltree.InvalidNode || !e.extendable(it, p) {
			continue
		}
		copy(e.arena[aw:], e.arena[it.off:it.off+it.n])
		it.off = int32(aw)
		aw += int(it.n)
		e.parts[w] = it
		w++
	}
	e.truncate(w, aw, k)
	if w > low {
		e.stack = append(e.stack, pending{node: v, first: low})
	}
	return nil
}

// admitRoot decides the single-node subtree ⟨v⟩, which every partial
// rooted at v contains: if the bounds or Keep reject it, they reject
// all of them.
func (e *enumerator) admitRoot(v xmltree.NodeID, depth int32) bool {
	if b := e.sel.Bounds.Depth; b > 0 && int(depth) > b {
		return false
	}
	if e.sel.Keep == nil {
		return true
	}
	e.arena = append(e.arena, v)
	ok := e.sel.Keep(Fragment{doc: e.doc, ids: e.arena[len(e.arena)-1:]})
	e.arena = e.arena[:len(e.arena)-1]
	return ok
}

// extendable reports whether adding parent p to partial it stays
// within the bounds; if not, no answer rooted above it exists.
func (e *enumerator) extendable(it partial, p xmltree.NodeID) bool {
	b := e.sel.Bounds
	switch {
	case b.Size > 0 && int(it.n) >= b.Size:
		return false
	case b.Height > 0 && int(it.maxDepth)-e.doc.Depth(p) > b.Height:
		return false
	case b.Width > 0 && int(e.arena[it.off+it.n-1]-p) > b.Width:
		return false
	}
	return true
}

func (e *enumerator) truncate(parts, arena, stack int) {
	e.parts = e.parts[:parts]
	e.arena = e.arena[:arena]
	e.stack = e.stack[:stack]
}

// emit hands partial it to fn as a transient fragment: its IDs stay in
// the arena, which the compaction after the visit overwrites.
func (e *enumerator) emit(it partial, fn func(Fragment) error) error {
	if e.answers++; e.answers > uint64(e.budget) {
		return budgetError("enumerate", e.budget)
	}
	ids := e.arena[it.off : it.off+it.n : it.off+it.n]
	return fn(Fragment{doc: e.doc, ids: ids, hash: hashIDs(ids)})
}
