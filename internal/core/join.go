package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/xmltree"
)

// joinPathBuf is the stack buffer for the root-to-LCA connecting
// path: big enough for two walks in any realistically deep document,
// spilling to the heap (one extra allocation) only beyond it. Keeping
// the buffer on the goroutine stack beat both a sync.Pool and a
// per-evaluation scratch in profiles — the join is short enough that
// pool synchronization costs more than it saves.
const joinPathBufLen = 48

// Join computes the fragment join f1 ⋈ f2 (Definition 4): the minimal
// fragment of the shared document that contains both f1 and f2. In a
// tree the minimal connected subgraph containing a node set is the
// union of the set with the paths from each node to the set's lowest
// common ancestor; since f1 and f2 are themselves connected, it
// suffices to connect their roots to the LCA of the two roots.
//
// The operation is idempotent, commutative, associative and absorbing
// (Section 2.2); those properties are exercised by the package's
// property tests.
func Join(f1, f2 Fragment) Fragment { return joinCounted(nil, f1, f2) }

// joinCounted is Join attributing the work to the evaluation's
// counters c (nil-safe).
func joinCounted(c *obs.EvalCounters, f1, f2 Fragment) Fragment {
	if f1.doc != f2.doc {
		panic("core: Join across documents")
	}
	if f1.doc == nil {
		panic("core: Join of zero Fragment")
	}
	c.AddJoins(1)
	// Absorption fast paths: f1 ⋈ f2 = f1 when f2 ⊆ f1 (and vice
	// versa). These also cover idempotency.
	if f2.SubsetOf(f1) {
		return f1
	}
	if f1.SubsetOf(f2) {
		return f2
	}
	d := f1.doc
	r1, r2 := f1.Root(), f2.Root()
	var walkBuf, pathBuf [joinPathBufLen]xmltree.NodeID
	extra := pathBuf[:0]
	// Contained-root fast path: roots are pre-order minima, so only
	// the larger root can lie inside the other fragment's span. When
	// it is a member, the union of the two node sets is already
	// connected — the join needs no LCA walk and no connecting path.
	lo, hi := f1, f2
	if r2 < r1 {
		lo, hi = f2, f1
	}
	if !lo.Contains(hi.Root()) {
		// Gather the connecting paths, excluding nodes already implied
		// by the fragments' own roots. Each walk is strictly
		// descending in pre-order IDs and the LCA is the minimum, so
		// merging the walks from their tails yields extra already
		// sorted ascending — no sort call on the hot path.
		l := d.LCA(r1, r2)
		desc := walkBuf[:0]
		for v := r1; v != l; v = d.Parent(v) {
			desc = append(desc, v)
		}
		m := len(desc)
		for v := r2; v != l; v = d.Parent(v) {
			desc = append(desc, v)
		}
		extra = append(extra, l)
		i, j := m-1, len(desc)-1
		for i >= 0 && j >= m {
			if desc[i] < desc[j] {
				extra = append(extra, desc[i])
				i--
			} else {
				extra = append(extra, desc[j])
				j--
			}
		}
		for ; i >= 0; i-- {
			extra = append(extra, desc[i])
		}
		for ; j >= m; j-- {
			extra = append(extra, desc[j])
		}
	}
	var ids []xmltree.NodeID
	if len(extra) == 0 {
		ids = mergeIDs(make([]xmltree.NodeID, 0, len(f1.ids)+len(f2.ids)), f1.ids, f2.ids)
	} else {
		// The three-way merge replaces per-element sorted insertion,
		// which cost O(|extra|·n) memmoves and dominated join
		// profiles on path-heavy workloads.
		ids = merge3IDs(make([]xmltree.NodeID, 0, len(f1.ids)+len(f2.ids)+len(extra)),
			f1.ids, f2.ids, extra)
	}
	return Fragment{doc: d, ids: ids, hash: hashIDs(ids)}
}

// JoinAll folds Join over all fragments: ⋈{f1,…,fn} = f1 ⋈ … ⋈ fn
// (the n-ary form used by Definition 6). It panics on an empty slice.
func JoinAll(fs []Fragment) Fragment { return joinAllCounted(nil, fs) }

// joinAllCounted is JoinAll counting its joins on c (nil-safe).
func joinAllCounted(c *obs.EvalCounters, fs []Fragment) Fragment {
	if len(fs) == 0 {
		panic("core: JoinAll of empty slice")
	}
	acc := fs[0]
	for _, f := range fs[1:] {
		acc = joinCounted(c, acc, f)
	}
	return acc
}

// mergeIDs merges two sorted ID slices into dst (appended from length
// 0, capacity pre-sized by the caller), returning the sorted
// duplicate-free result.
func mergeIDs(dst, a, b []xmltree.NodeID) []xmltree.NodeID {
	out := dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// merge3IDs merges three sorted ID slices into dst (appended from
// length 0, capacity pre-sized by the caller), returning the sorted
// duplicate-free result. Only used when a join has a non-empty
// connecting path; the common no-path case takes the tighter two-way
// merge.
func merge3IDs(dst, a, b, c []xmltree.NodeID) []xmltree.NodeID {
	out := dst
	i, j, k := 0, 0, 0
	for i < len(a) || j < len(b) || k < len(c) {
		v := xmltree.NodeID(1<<31 - 1)
		if i < len(a) {
			v = a[i]
		}
		if j < len(b) && b[j] < v {
			v = b[j]
		}
		if k < len(c) && c[k] < v {
			v = c[k]
		}
		out = append(out, v)
		if i < len(a) && a[i] == v {
			i++
		}
		if j < len(b) && b[j] == v {
			j++
		}
		for k < len(c) && c[k] == v {
			k++
		}
	}
	return out
}

// validateSameDoc panics unless every fragment belongs to doc; used by
// set-level operations to fail fast on mixed inputs.
func validateSameDoc(doc *xmltree.Document, fs []Fragment) {
	for _, f := range fs {
		if f.doc != doc {
			panic(fmt.Sprintf("core: fragment %v belongs to a different document", f))
		}
	}
}
