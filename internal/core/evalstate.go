package core

import "repro/internal/obs"

// EvalState is the per-evaluation mutable kernel state threaded
// through the algebra's evaluator-form operators (the *Bounded family,
// ReduceState, MultiPowersetJoinTrace): one value per query evaluation,
// never shared across evaluations. It carries the operator counters
// plus the pair-join memo.
//
// The memo caches fragment-join results keyed on the operands'
// identity-hash pair. Fragment join is commutative and deterministic
// over immutable inputs, so a (f1, f2) pair always joins to the same
// fragment; the fixed-point family recomputes the same pairs heavily
// — ⊖ (Definition 10) probes every witness pair once per elimination
// candidate per sweep, and the Theorem 1 budgeted self-join's first
// iteration re-joins exactly ⊖'s witness pairs. A hit returns the
// cached result after verifying the stored operands really are the
// probing operands (cheap backing-array identity check first, full
// Equal on the cold path), so a 128-bit hash collision can never
// substitute a wrong result — semantics are byte-identical with and
// without the memo.
//
// Memo hits still count as joins in the counters: Stats.Ops.Joins
// remains the paper's logical cost currency (Definition 4
// applications), with Ops.JoinMemoHits reporting how many of those
// applications were answered from the memo instead of recomputed.
//
// The memo is consulted only where pairs provably repeat: ⊖'s witness
// sweeps, the Theorem 1 self-join's first iteration after ⊖ has
// populated the map, and the powerset trace's shared fold prefixes.
// Symmetric F × F passes with a cold memo exploit commutativity
// directly instead (symmetricSelfPass) — semi-naive frontiers never
// repeat a pair, so map inserts there would be pure overhead.
//
// EvalState is not safe for concurrent use. All methods are nil-safe:
// a nil *EvalState counts nothing and memoizes nothing.
type EvalState struct {
	counters *obs.EvalCounters
	memo     map[pairKey]memoEntry
}

// pairKey is the unordered operand-pair key: hashes sorted so the
// commutative join hits the same entry in either operand order.
type pairKey struct{ h1, h2 uint64 }

// memoEntry stores the verified operands with the cached result.
type memoEntry struct{ a, b, out Fragment }

// maxMemoEntries bounds the memo (≈ 7 MiB worst case per
// evaluation). Once full it stops admitting new pairs but keeps
// serving hits; the heavy repeat sources (⊖'s witness pairs) enter
// first, which is exactly the working set worth keeping.
const maxMemoEntries = 1 << 16

// NewEvalState returns a fresh evaluation state attributing operator
// counts to c (which may be nil).
func NewEvalState(c *obs.EvalCounters) *EvalState {
	return &EvalState{counters: c}
}

// Counters returns the evaluation's operator counters (nil on a nil
// state — safe, since all counter methods are themselves nil-safe).
func (st *EvalState) Counters() *obs.EvalCounters {
	if st == nil {
		return nil
	}
	return st.counters
}

// MemoLen reports the number of memoized pairs (0 on nil).
func (st *EvalState) MemoLen() int {
	if st == nil {
		return 0
	}
	return len(st.memo)
}

// JoinMemo computes f1 ⋈ f2 through the pair memo: a verified hit
// returns the cached fragment without recomputing the merge, a miss
// computes the join and caches it. Every application counts as a
// join, plus one memo hit when served from cache.
func (st *EvalState) JoinMemo(f1, f2 Fragment) Fragment {
	if st == nil {
		return Join(f1, f2)
	}
	if out, ok := st.memoGet(f1, f2); ok {
		return out
	}
	out := joinCounted(st.counters, f1, f2)
	st.memoPut(f1, f2, out)
	return out
}

// memoGet serves f1 ⋈ f2 from the pair memo, counting a hit as a join
// and a memo hit; ok is false on a miss, which counts nothing.
func (st *EvalState) memoGet(f1, f2 Fragment) (out Fragment, ok bool) {
	k := pairKey{f1.hash, f2.hash}
	if k.h1 > k.h2 {
		k.h1, k.h2 = k.h2, k.h1
		f1, f2 = f2, f1
	}
	if e, hit := st.memo[k]; hit && sameFragment(e.a, f1) && sameFragment(e.b, f2) {
		st.counters.AddJoins(1)
		st.counters.AddJoinMemoHits(1)
		return e.out, true
	}
	return Fragment{}, false
}

// memoPut records out = f1 ⋈ f2 unless the memo is full.
func (st *EvalState) memoPut(f1, f2, out Fragment) {
	if f1.hash > f2.hash {
		f1, f2 = f2, f1
	}
	if st.memo == nil {
		st.memo = make(map[pairKey]memoEntry, 256)
	}
	if len(st.memo) < maxMemoEntries {
		st.memo[pairKey{f1.hash, f2.hash}] = memoEntry{a: f1, b: f2, out: out}
	}
}

// sameFragment reports a and b denote the same fragment, fast-pathing
// the common case where they share a backing ID slice (fixed-point
// loops re-join the very same Fragment values, not copies).
func sameFragment(a, b Fragment) bool {
	if a.doc != b.doc || len(a.ids) != len(b.ids) {
		return false
	}
	if len(a.ids) > 0 && &a.ids[0] == &b.ids[0] {
		return true
	}
	return a.Equal(b)
}
