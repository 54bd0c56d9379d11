package core

import (
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Set is a set of fragments of one document. Fragments are
// deduplicated by value and iteration order is insertion order, which
// keeps evaluation deterministic and lets the Table 1 reproduction
// present results in a stable order.
//
// Dedup runs on an open-addressed bucket table over the fragments'
// cached 64-bit hashes with Fragment.Equal as the collision fallback,
// so membership probes — the innermost operation of every fixed-point
// iteration — never allocate (the old map[string]int built one string
// key per probe).
//
// The zero Set is empty and ready to use.
type Set struct {
	frags []Fragment
	table []int32 // open-addressed; -1 = empty, else index into frags
}

// minTableSize is the initial bucket count (power of two).
const minTableSize = 16

// NewSet builds a set from the given fragments, deduplicating.
func NewSet(fs ...Fragment) *Set {
	s := &Set{}
	for _, f := range fs {
		s.Add(f)
	}
	return s
}

// NodeSet returns the fragment set F = nodes(D): one single-node
// fragment per document node (Section 2.3's starting set).
func NodeSet(d *xmltree.Document) *Set {
	s := &Set{frags: make([]Fragment, 0, d.Len())}
	s.growTable(tableSizeFor(d.Len()))
	for id := xmltree.NodeID(0); int(id) < d.Len(); id++ {
		s.Add(NodeFragment(d, id))
	}
	return s
}

// tableSizeFor returns the smallest power-of-two bucket count that
// holds n fragments below the ¾ load factor.
func tableSizeFor(n int) int {
	size := minTableSize
	for size-size/4 <= n {
		size *= 2
	}
	return size
}

// growTable rebuilds the bucket table at the given power-of-two size,
// rehashing every present fragment.
func (s *Set) growTable(size int) {
	table := make([]int32, size)
	for i := range table {
		table[i] = -1
	}
	mask := uint64(size - 1)
	for idx, f := range s.frags {
		i := f.hash & mask
		for table[i] >= 0 {
			i = (i + 1) & mask
		}
		table[i] = int32(idx)
	}
	s.table = table
}

// NodeFragments builds a set of single-node fragments from ids.
func NodeFragments(d *xmltree.Document, ids []xmltree.NodeID) *Set {
	s := &Set{}
	for _, id := range ids {
		s.Add(NodeFragment(d, id))
	}
	return s
}

// Add inserts f, reporting whether it was not already present. A
// duplicate probe performs zero allocations.
func (s *Set) Add(f Fragment) bool {
	if f.IsZero() {
		panic("core: Add of zero Fragment")
	}
	if len(s.frags) >= len(s.table)-len(s.table)/4 {
		size := minTableSize
		if len(s.table) > 0 {
			size = len(s.table) * 2
		}
		s.growTable(size)
	}
	mask := uint64(len(s.table) - 1)
	i := f.hash & mask
	for {
		t := s.table[i]
		if t < 0 {
			s.table[i] = int32(len(s.frags))
			s.frags = append(s.frags, f)
			return true
		}
		if s.frags[t].Equal(f) {
			return false
		}
		i = (i + 1) & mask
	}
}

// AddAll inserts every fragment of t into s and reports how many were
// new.
func (s *Set) AddAll(t *Set) int {
	added := 0
	for _, f := range t.frags {
		if s.Add(f) {
			added++
		}
	}
	return added
}

// Contains reports whether f ∈ s. Never allocates.
func (s *Set) Contains(f Fragment) bool {
	if len(s.table) == 0 {
		return false
	}
	mask := uint64(len(s.table) - 1)
	i := f.hash & mask
	for {
		t := s.table[i]
		if t < 0 {
			return false
		}
		if s.frags[t].Equal(f) {
			return true
		}
		i = (i + 1) & mask
	}
}

// Len returns |s|.
func (s *Set) Len() int { return len(s.frags) }

// Fragments returns the fragments in insertion order. The slice is
// shared; callers must not modify it.
func (s *Set) Fragments() []Fragment { return s.frags }

// At returns the i-th fragment in insertion order.
func (s *Set) At(i int) Fragment { return s.frags[i] }

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{
		frags: make([]Fragment, len(s.frags)),
		table: make([]int32, len(s.table)),
	}
	copy(c.frags, s.frags)
	copy(c.table, s.table)
	return c
}

// Equal reports whether s and t contain exactly the same fragments
// (order-insensitive).
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, f := range s.frags {
		if !t.Contains(f) {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a new set.
func Union(s, t *Set) *Set {
	u := s.Clone()
	u.AddAll(t)
	return u
}

// Select is the selection operation σ_P(F) (Definition 3): the subset
// of fragments satisfying pred.
func (s *Set) Select(pred func(Fragment) bool) *Set {
	out := &Set{}
	for _, f := range s.frags {
		if pred(f) {
			out.Add(f)
		}
	}
	return out
}

// Sorted returns the fragments ordered canonically: by size, then by
// node IDs lexicographically. Presentation layers use it for stable
// output; the set itself is order-preserving.
func (s *Set) Sorted() []Fragment {
	out := make([]Fragment, len(s.frags))
	copy(out, s.frags)
	sort.Slice(out, func(i, j int) bool { return LessFragments(out[i], out[j]) })
	return out
}

// LessFragments is the canonical order of two fragments of one
// document: smaller first, then by node IDs lexicographically. It is a
// strict total order (equal only for Equal fragments), so sorting by it
// — or breaking score ties with it — is deterministic.
func LessFragments(a, b Fragment) bool {
	if len(a.ids) != len(b.ids) {
		return len(a.ids) < len(b.ids)
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			return a.ids[i] < b.ids[i]
		}
	}
	return false
}

// String renders the set as {⟨…⟩, ⟨…⟩, …} in canonical order.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i, f := range s.Sorted() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.String())
	}
	sb.WriteString("}")
	return sb.String()
}
