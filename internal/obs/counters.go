// Package obs is the observability substrate: per-evaluation operator
// counters, a process-wide registry of named counters and fixed-bucket
// histograms, and per-operator trace spans. The paper's efficiency
// argument is stated in operator counts — joins executed, candidates
// generated, fragments pruned by push-down — so the instruments here
// make those quantities observable per query and in aggregate, live,
// without a wall clock in the loop. Stdlib only; every type is safe
// for concurrent use unless noted.
package obs

import "sync/atomic"

// EvalCounters counts the work of ONE evaluation. A fresh value is
// created per query evaluation and threaded through the algebra, so
// concurrent evaluations never observe each other's operations. All
// methods are nil-safe: calling them on a nil *EvalCounters is a no-op,
// which lets the algebra's uncounted entry points pass nil instead of
// branching.
type EvalCounters struct {
	joins         atomic.Uint64
	pairwiseJoins atomic.Uint64
	powersetExp   atomic.Uint64
	fixedPointIts atomic.Uint64
	filterPrunes  atomic.Uint64
	joinMemoHits  atomic.Uint64
	dedupProbes   atomic.Uint64
	postingPrunes atomic.Uint64
	enumNodes     atomic.Uint64
	enumPrunes    atomic.Uint64
}

// AddJoins counts n fragment joins (Definition 4 applications).
func (c *EvalCounters) AddJoins(n uint64) {
	if c != nil {
		c.joins.Add(n)
	}
}

// AddPairwiseJoins counts n set-level pairwise join operations
// (Definition 5 applications, not individual fragment joins).
func (c *EvalCounters) AddPairwiseJoins(n uint64) {
	if c != nil {
		c.pairwiseJoins.Add(n)
	}
}

// AddPowersetExpansions counts n candidate fragment sets materialized
// by a literal powerset enumeration (Definition 6 rows).
func (c *EvalCounters) AddPowersetExpansions(n uint64) {
	if c != nil {
		c.powersetExp.Add(n)
	}
}

// AddFixedPointIterations counts n frontier iterations of a
// fixed-point computation (Section 3.1).
func (c *EvalCounters) AddFixedPointIterations(n uint64) {
	if c != nil {
		c.fixedPointIts.Add(n)
	}
}

// AddFilterPrunes counts n fragments discarded by a pushed-down
// anti-monotonic filter before they could join further (Theorem 3's
// savings, made visible).
func (c *EvalCounters) AddFilterPrunes(n uint64) {
	if c != nil {
		c.filterPrunes.Add(n)
	}
}

// AddJoinMemoHits counts n fragment joins answered without
// recomputing Definition 4: the commutative mirror of a pair just
// computed in a symmetric F × F pass. Each is also counted as a join,
// so Joins − JoinMemoHits is the number of joins actually built.
func (c *EvalCounters) AddJoinMemoHits(n uint64) {
	if c != nil {
		c.joinMemoHits.Add(n)
	}
}

// AddDedupProbes counts n set-membership probes performed while
// deduplicating join results into an accumulator set.
func (c *EvalCounters) AddDedupProbes(n uint64) {
	if c != nil {
		c.dedupProbes.Add(n)
	}
}

// AddPostingPrunes counts n evaluations (or candidate documents)
// proven answerless by posting-level label arithmetic — witness-pair
// lower bounds against pushed anti-monotonic limits — before any
// fragment was materialized or joined.
func (c *EvalCounters) AddPostingPrunes(n uint64) {
	if c != nil {
		c.postingPrunes.Add(n)
	}
}

// AddEnumNodes counts n partial subtrees the answer enumerator formed
// (core.EnumerateAnswers): its unit of work, in place of joins.
func (c *EvalCounters) AddEnumNodes(n uint64) {
	if c != nil {
		c.enumNodes.Add(n)
	}
}

// AddEnumPrunes counts n partial subtrees the answer enumerator
// rejected because they broke a pushed bound or failed a pushed
// anti-monotonic clause. Each is also counted as an enum node.
func (c *EvalCounters) AddEnumPrunes(n uint64) {
	if c != nil {
		c.enumPrunes.Add(n)
	}
}

// Joins returns the fragment-join count (0 on a nil receiver).
func (c *EvalCounters) Joins() uint64 {
	if c == nil {
		return 0
	}
	return c.joins.Load()
}

// JoinMemoHits returns the symmetric-mirror join count (0 on a nil
// receiver).
func (c *EvalCounters) JoinMemoHits() uint64 {
	if c == nil {
		return 0
	}
	return c.joinMemoHits.Load()
}

// Reset zeroes every counter.
func (c *EvalCounters) Reset() {
	if c == nil {
		return
	}
	c.joins.Store(0)
	c.pairwiseJoins.Store(0)
	c.powersetExp.Store(0)
	c.fixedPointIts.Store(0)
	c.filterPrunes.Store(0)
	c.joinMemoHits.Store(0)
	c.dedupProbes.Store(0)
	c.postingPrunes.Store(0)
	c.enumNodes.Store(0)
	c.enumPrunes.Store(0)
}

// Snapshot reads every counter at once. The reads are individually
// atomic, not mutually consistent — good enough for statistics.
func (c *EvalCounters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		Joins:                c.joins.Load(),
		PairwiseJoins:        c.pairwiseJoins.Load(),
		PowersetExpansions:   c.powersetExp.Load(),
		FixedPointIterations: c.fixedPointIts.Load(),
		FilterPrunes:         c.filterPrunes.Load(),
		JoinMemoHits:         c.joinMemoHits.Load(),
		DedupProbes:          c.dedupProbes.Load(),
		PostingPrunes:        c.postingPrunes.Load(),
		EnumNodes:            c.enumNodes.Load(),
		EnumPrunes:           c.enumPrunes.Load(),
	}
}

// CounterSnapshot is a plain-value copy of an EvalCounters, embedded
// in query statistics and serialized by the HTTP layer. JoinMemoHits
// keeps its name from when a per-evaluation pair memo also served
// joins; it now counts symmetric mirrors only.
type CounterSnapshot struct {
	Joins                uint64 `json:"joins"`
	PairwiseJoins        uint64 `json:"pairwise_joins"`
	PowersetExpansions   uint64 `json:"powerset_expansions"`
	FixedPointIterations uint64 `json:"fixedpoint_iterations"`
	FilterPrunes         uint64 `json:"filter_prunes"`
	JoinMemoHits         uint64 `json:"join_memo_hits"`
	DedupProbes          uint64 `json:"dedup_probes"`
	PostingPrunes        uint64 `json:"posting_prunes"`
	EnumNodes            uint64 `json:"enum_nodes"`
	EnumPrunes           uint64 `json:"enum_prunes"`
}
