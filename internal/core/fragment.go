// Package core implements the paper's algebraic query model: document
// fragments (Definition 2), selection (Definition 3), fragment join
// (Definition 4), pairwise fragment join (Definition 5), powerset
// fragment join (Definition 6), fixed points (Definition 9) and
// fragment set reduction (Definition 10), together with the
// optimization equivalences of Theorems 1–3.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Fragment is a document fragment (Definition 2): a non-empty set of
// nodes of one document whose induced subgraph is a rooted (connected)
// tree. IDs are kept sorted; because NodeIDs are pre-order ranks, the
// first ID is always the fragment's root.
//
// Fragments are immutable after construction; all operations return new
// values. The zero Fragment is invalid — construct via NewFragment,
// NodeFragment or the algebra operations.
type Fragment struct {
	doc  *xmltree.Document
	ids  []xmltree.NodeID // sorted, duplicate-free, connected
	hash uint64           // hashIDs(ids), cached at construction
}

// FNV-1a over 32-bit words. The per-fragment identity hash feeds the
// open-addressed Set table and the pair-join memo, so it must be
// cheap (one xor + multiply per node, no allocation) and stable for
// the process lifetime; it is never persisted.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashIDs fingerprints a sorted NodeID slice. Equal slices hash
// equal; dedup resolves the (vanishingly rare) converse collisions
// with Fragment.Equal.
func hashIDs(ids []xmltree.NodeID) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= fnvPrime64
	}
	return h
}

// NodeFragment returns the single-node fragment ⟨id⟩ (the paper calls
// these simply "nodes").
func NodeFragment(d *xmltree.Document, id xmltree.NodeID) Fragment {
	if !d.Valid(id) {
		panic(fmt.Sprintf("core: NodeFragment(%v) out of range", id))
	}
	ids := []xmltree.NodeID{id}
	return Fragment{doc: d, ids: ids, hash: hashIDs(ids)}
}

// NewFragment builds a fragment from the given node set. It returns an
// error if the set is empty, contains an invalid or duplicate node, or
// does not induce a connected subtree of d.
func NewFragment(d *xmltree.Document, ids []xmltree.NodeID) (Fragment, error) {
	if len(ids) == 0 {
		return Fragment{}, fmt.Errorf("core: empty fragment")
	}
	sorted := make([]xmltree.NodeID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, id := range sorted {
		if !d.Valid(id) {
			return Fragment{}, fmt.Errorf("core: node %v out of range", id)
		}
		if i > 0 && sorted[i-1] == id {
			return Fragment{}, fmt.Errorf("core: duplicate node %v", id)
		}
	}
	f := Fragment{doc: d, ids: sorted, hash: hashIDs(sorted)}
	if !f.connected() {
		return Fragment{}, fmt.Errorf("core: nodes %v do not induce a connected subtree", sorted)
	}
	return f, nil
}

// MustFragment is NewFragment that panics on error; intended for tests
// and examples with known-good literals.
func MustFragment(d *xmltree.Document, ids ...xmltree.NodeID) Fragment {
	f, err := NewFragment(d, ids)
	if err != nil {
		panic(err)
	}
	return f
}

// connected checks that every non-root member's parent is also a
// member. Because the induced subgraph of a tree node set is a forest,
// this is exactly connectivity with root ids[0].
func (f Fragment) connected() bool {
	if len(f.ids) == 1 {
		return true
	}
	member := make(map[xmltree.NodeID]bool, len(f.ids))
	for _, id := range f.ids {
		member[id] = true
	}
	for _, id := range f.ids[1:] {
		if !member[f.doc.Parent(id)] {
			return false
		}
	}
	return true
}

// Document returns the document the fragment belongs to.
func (f Fragment) Document() *xmltree.Document { return f.doc }

// IsZero reports whether f is the invalid zero value.
func (f Fragment) IsZero() bool { return f.doc == nil }

// Size returns |nodes(f)|, the node count (the size filter's measure,
// Section 3.3.1).
func (f Fragment) Size() int { return len(f.ids) }

// Root returns the root node of the induced subtree.
func (f Fragment) Root() xmltree.NodeID { return f.ids[0] }

// IDs returns the fragment's nodes in document order. The slice is
// shared; callers must not modify it.
func (f Fragment) IDs() []xmltree.NodeID { return f.ids }

// CopyTo appends f's IDs to buf and returns f backed by that copy,
// together with the grown buf. It is how a caller keeps a transient
// fragment (EnumerateEach's) in storage of its own, many fragments to
// one buffer.
func (f Fragment) CopyTo(buf []xmltree.NodeID) (Fragment, []xmltree.NodeID) {
	off := len(buf)
	buf = append(buf, f.ids...)
	f.ids = buf[off:len(buf):len(buf)]
	return f, buf
}

// Contains reports whether node id ∈ nodes(f).
func (f Fragment) Contains(id xmltree.NodeID) bool {
	i := sort.Search(len(f.ids), func(i int) bool { return f.ids[i] >= id })
	return i < len(f.ids) && f.ids[i] == id
}

// SubsetOf reports f ⊆ g: every node of f is a node of g. Both must
// belong to the same document.
func (f Fragment) SubsetOf(g Fragment) bool {
	if f.doc != g.doc || len(f.ids) > len(g.ids) {
		return false
	}
	i, j := 0, 0
	for i < len(f.ids) && j < len(g.ids) {
		switch {
		case f.ids[i] == g.ids[j]:
			i++
			j++
		case f.ids[i] > g.ids[j]:
			j++
		default:
			return false
		}
	}
	return i == len(f.ids)
}

// Hash returns the fragment's cached 64-bit identity hash, computed
// over its sorted node IDs at construction. Fragments of the same
// document that are Equal always share a hash; unequal fragments
// collide only with ~2⁻⁶⁴ probability, and every hash consumer (Set
// dedup, the pair-join memo) falls back to Equal on collision.
func (f Fragment) Hash() uint64 { return f.hash }

// Equal reports whether f and g are the same fragment of the same
// document.
func (f Fragment) Equal(g Fragment) bool {
	if f.doc != g.doc || f.hash != g.hash || len(f.ids) != len(g.ids) {
		return false
	}
	for i := range f.ids {
		if f.ids[i] != g.ids[i] {
			return false
		}
	}
	return true
}

// Height returns the vertical distance between the fragment's root and
// its farthest node (Section 3.3.2's height measure).
func (f Fragment) Height() int {
	base := f.doc.Depth(f.ids[0])
	h := 0
	for _, id := range f.ids[1:] {
		if d := f.doc.Depth(id) - base; d > h {
			h = d
		}
	}
	return h
}

// Width returns the horizontal distance between the fragment's extreme
// (leftmost and rightmost) nodes, measured as the pre-order span
// max(id) − min(id). The span shrinks or stays equal on sub-fragments,
// which is what makes the width filter anti-monotonic (Section 3.3.2).
func (f Fragment) Width() int {
	return int(f.ids[len(f.ids)-1] - f.ids[0])
}

// MaxDepth returns the depth (distance from the document root) of the
// deepest node in the fragment.
func (f Fragment) MaxDepth() int {
	m := 0
	for _, id := range f.ids {
		if d := f.doc.Depth(id); d > m {
			m = d
		}
	}
	return m
}

// Leaves returns the fragment's leaf nodes: members none of whose
// children (in the fragment) exist. Definition 8 requires every query
// keyword to occur on a leaf of the answer fragment.
//
// The member-parents are collected into a sorted slice and walked in
// lockstep with the (already sorted) ids — no map, two allocations
// total (see BenchmarkFragmentLeaves).
func (f Fragment) Leaves() []xmltree.NodeID {
	if len(f.ids) == 1 {
		return []xmltree.NodeID{f.ids[0]}
	}
	parents := make([]xmltree.NodeID, 0, len(f.ids)-1)
	for _, id := range f.ids[1:] {
		parents = append(parents, f.doc.Parent(id))
	}
	slices.Sort(parents)
	leaves := make([]xmltree.NodeID, 0, len(f.ids))
	j := 0
	for _, id := range f.ids {
		for j < len(parents) && parents[j] < id {
			j++
		}
		if j < len(parents) && parents[j] == id {
			continue // id has a child inside the fragment
		}
		leaves = append(leaves, id)
	}
	return leaves
}

// HasKeywordOnLeaf reports whether term occurs in keywords(n) for some
// leaf n of the fragment.
func (f Fragment) HasKeywordOnLeaf(term string) bool {
	for _, id := range f.Leaves() {
		if f.doc.HasKeyword(id, term) {
			return true
		}
	}
	return false
}

// HasKeyword reports whether term occurs in keywords(n) for some member
// node n.
func (f Fragment) HasKeyword(term string) bool {
	for _, id := range f.ids {
		if f.doc.HasKeyword(id, term) {
			return true
		}
	}
	return false
}

// String renders the fragment in the paper's ⟨n16,n17,n18⟩ notation.
func (f Fragment) String() string {
	var sb strings.Builder
	sb.WriteString("⟨")
	for i, id := range f.ids {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(id.String())
	}
	sb.WriteString("⟩")
	return sb.String()
}
