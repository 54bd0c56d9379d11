// Package cost implements the cost-model sketch of the paper's
// Section 5: estimating the reduction factor RF = (a−b)/a of a
// fragment set without computing the full reduction, and choosing an
// evaluation strategy from the estimate. The paper leaves the cost
// model as future work and only fixes its ingredients (RF, a crossover
// value v learned from experiments); this package builds exactly those
// ingredients, with the crossover measured by the benchmark harness.
package cost

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// EstimateRF estimates the reduction factor of fs. Seed sets — the
// only sets the auto chooser ever estimates — consist of single-node
// fragments in preorder, and for those the RF is computed exactly in
// one allocation-free scan (see structuralRF). General sets fall back
// to sampling: draw sample elements and test each against the joins of
// sample-sized pseudo-random pairs, extrapolating the eliminated
// proportion. sample ≤ 0 defaults to 16. For |fs| ≤ 2 the RF is
// exactly 0 (Definition 10 can eliminate nothing). The estimate is
// deterministic for a given seed.
func EstimateRF(fs *core.Set, sample int, seed int64) float64 {
	n := fs.Len()
	if n <= 2 {
		return 0
	}
	if rf, ok := structuralRF(fs); ok {
		return rf
	}
	if sample <= 0 {
		sample = 16
	}
	if sample >= n {
		// Small set: compute exactly.
		return core.ReductionFactor(fs)
	}
	frags := fs.Fragments()
	eliminated := 0
	probes := sample
	pairTrials := sample
	state := uint64(seed)
	var k, i, j uint64
	for p := 0; p < probes; p++ {
		k, state = splitmix64(state)
		k %= uint64(n)
		fk := frags[k]
		for t := 0; t < pairTrials; t++ {
			i, state = splitmix64(state)
			j, state = splitmix64(state)
			i, j = i%uint64(n), j%uint64(n)
			if i == k || j == k || i == j {
				continue
			}
			if fk.SubsetOf(core.Join(frags[i], frags[j])) {
				eliminated++
				break
			}
		}
	}
	return float64(eliminated) / float64(probes)
}

// splitmix64 is the SplitMix64 step: it returns one pseudo-random
// value and the advanced state. Replaces the per-call
// rand.New(rand.NewSource(seed)) that used to dominate EstimateRF's
// allocation profile on the auto path.
func splitmix64(s uint64) (uint64, uint64) {
	s += 0x9E3779B97F4A7C15
	z := s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z, s
}

// structuralRF computes the exact reduction factor of a set of
// single-node fragments over one document without a single join. A
// single-node fragment k is eliminable (Definition 10) iff node k lies
// strictly on the tree path between two other witnesses, i.e. iff k is
// interior to the Steiner tree of the witness set — and the Steiner
// leaves that witness the elimination are themselves never eliminable,
// so the iterative reduction ⊖ converges to exactly the interior
// count. With witnesses sorted by preorder ID, "interior" collapses to
// extent arithmetic (SubtreeEnd is the largest ID inside the subtree,
// inclusive): for k not the preorder minimum, eliminated(k) ⟺
// the next witness falls inside subtree(k); for the minimum, the other
// witnesses must additionally span two distinct child subtrees.
// Returns ok=false (caller falls back to sampling) when fragments are
// not single-node, span documents, or are not preorder-sorted.
func structuralRF(fs *core.Set) (float64, bool) {
	n := fs.Len()
	doc := fs.At(0).Document()
	for i := 0; i < n; i++ {
		f := fs.At(i)
		if f.Size() != 1 || f.Document() != doc {
			return 0, false
		}
		if i > 0 && f.Root() <= fs.At(i-1).Root() {
			return 0, false
		}
	}
	last := fs.At(n - 1).Root()
	eliminated := 0
	for k := 0; k < n-1; k++ {
		id := fs.At(k).Root()
		end := doc.SubtreeEnd(id)
		if fs.At(k+1).Root() > end {
			continue // no witness inside subtree(id)
		}
		if k > 0 || last > end {
			// A witness inside and one outside: id is on the path
			// between them.
			eliminated++
			continue
		}
		// k is the preorder minimum and every other witness sits in its
		// subtree: id is interior iff they span two child subtrees.
		c := childContaining(doc, id, fs.At(1).Root())
		if last > doc.SubtreeEnd(c) {
			eliminated++
		}
	}
	return float64(eliminated) / float64(n), true
}

// childContaining returns the child of parent whose subtree contains
// w (which must be a strict descendant of parent). Children are stored
// in preorder, so this is a binary search for the greatest child ≤ w.
func childContaining(doc *xmltree.Document, parent, w xmltree.NodeID) xmltree.NodeID {
	kids := doc.Children(parent)
	lo, hi := 0, len(kids)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if kids[mid] <= w {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return kids[lo]
}

// EliminableWitnesses counts, among the preorder-sorted witness nodes
// ids, those eliminable under Definition 10 when each witness seeds a
// single-node fragment — the statistics layer's per-term ingredient
// for estimating RF without sampling. Same extent arithmetic as
// structuralRF, operating on raw node IDs.
func EliminableWitnesses(doc *xmltree.Document, ids []xmltree.NodeID) int {
	n := len(ids)
	if n <= 2 {
		return 0
	}
	last := ids[n-1]
	eliminated := 0
	for k := 0; k < n-1; k++ {
		end := doc.SubtreeEnd(ids[k])
		if ids[k+1] > end {
			continue
		}
		if k > 0 || last > end {
			eliminated++
			continue
		}
		c := childContaining(doc, ids[k], ids[1])
		if last > doc.SubtreeEnd(c) {
			eliminated++
		}
	}
	return eliminated
}

// Strategy identifies an evaluation strategy: the paper's Section 4
// strategies, plus the answer enumeration auto uses under a pushable
// filter.
type Strategy int

const (
	// BruteForce evaluates Definition 6 literally and filters last
	// (Section 4.1). Exponential; usable only on tiny inputs.
	BruteForce Strategy = iota
	// Naive uses the Theorem 2 decomposition but computes fixed points
	// by the dynamic-programming iteration with fixed-point checking
	// (Section 3.1.1).
	Naive
	// SetReduction computes fixed points with Theorem 1's |⊖(F)|
	// iteration budget, paying the reduction's cost to skip the
	// checking (Sections 3.1.2, 4.2).
	SetReduction
	// PushDown additionally pushes anti-monotonic selections below
	// every join (Section 4.3, Theorem 3).
	PushDown
	// Enumerate produces the answer set directly as the closed witness
	// sets (core.EnumerateAnswers) under the pushed selection. The
	// evaluator chooses it under auto when a clause is anti-monotonic.
	// ParseStrategy does not accept it: it is no CLI or HTTP strategy
	// spelling.
	Enumerate
)

// String names the strategy as in the paper's Section 4 headings.
func (s Strategy) String() string {
	switch s {
	case BruteForce:
		return "brute-force"
	case Naive:
		return "naive-fixed-point"
	case SetReduction:
		return "set-reduction"
	case PushDown:
		return "push-down"
	case Enumerate:
		return "enumerate"
	default:
		return "unknown"
	}
}

// ParseStrategy maps a user-facing strategy name — the spelling of the
// CLI -strategy flag and the HTTP strategy parameter: auto,
// brute-force, naive, set-reduction or push-down, with "" meaning auto
// — to a Strategy. For auto it reports auto = true and s = PushDown,
// the strategy a static plan display assumes when none is forced
// (evaluation then chooses per query; see Chooser).
func ParseStrategy(name string) (s Strategy, auto bool, err error) {
	switch name {
	case "", "auto":
		return PushDown, true, nil
	case "brute-force":
		return BruteForce, false, nil
	case "naive":
		return Naive, false, nil
	case "set-reduction":
		return SetReduction, false, nil
	case "push-down":
		return PushDown, false, nil
	default:
		return 0, false, fmt.Errorf("unknown strategy %q (want auto, brute-force, naive, set-reduction or push-down)", name)
	}
}

// Chooser picks a strategy from input characteristics. DefaultCrossover
// is the empirical value v of Section 5 below which set reduction is
// not worth its overhead; the benchmark harness (EXPERIMENTS.md,
// perf-rf) measures it.
type Chooser struct {
	// Crossover is the minimum estimated RF at which set reduction is
	// applied; see Section 5's discussion of v.
	Crossover float64
	// BruteForceLimit is the maximum total input size for which the
	// literal powerset evaluation is even considered.
	BruteForceLimit int
	// SampleSize and Seed parameterize EstimateRF.
	SampleSize int
	Seed       int64
}

// DefaultChooser returns a Chooser with the crossover measured by the
// perf-rf experiment on synthetic corpora (EXPERIMENTS.md): the
// ⊖-computation plus budgeted iteration beat the checking-based
// iteration only once roughly two thirds of the set reduces away.
func DefaultChooser() Chooser {
	return Chooser{Crossover: 0.6, BruteForceLimit: 8, SampleSize: 16, Seed: 1}
}

// PostingPrune parameterizes the postings-vs-tree decision for the
// label-arithmetic pre-filter that runs BEFORE any strategy above: with
// pushed anti-monotonic bounds in play, witness-pair lower bounds
// (size ≥ d(wi)+d(wj)−2·d(lca)+1 and friends) can prove an answer set
// empty straight off the posting lists. The check costs |Wi|·|Wj| LCA
// computations per group pair, so it only pays while that product is
// small relative to the joins it can save; past the budget the tree
// evaluation is entered directly.
type PostingPrune struct {
	// PairBudget is the maximum |Wi|·|Wj| witness-pair product (per
	// group pair, per document) the pre-filter will examine.
	PairBudget int
}

// DefaultPostingPrune returns the budget used by the engine and the
// global index: 4096 pairs is ≤ a few microseconds of O(1) LCA
// arithmetic, far below the cost of even one materialized join pass
// over the same seeds.
func DefaultPostingPrune() PostingPrune {
	return PostingPrune{PairBudget: 4096}
}

// PairFeasible reports whether a group pair with the given witness
// counts fits the budget.
func (p PostingPrune) PairFeasible(n1, n2 int) bool {
	if p.PairBudget <= 0 {
		return false
	}
	return n1 > 0 && n2 > 0 && n1 <= p.PairBudget/n2
}

// Choose selects a strategy for joining the given keyword fragment
// sets under a filter that is (or is not) anti-monotonic.
//
// An anti-monotonic filter always makes PushDown the right choice
// (Theorem 3 guarantees no loss and every pruned fragment saves
// joins). Without one, the estimated RF against the crossover decides
// between Theorem 1's budgeted iteration (SetReduction, which pays for
// computing ⊖ up front) and the checking-based iteration (Naive);
// tiny inputs use the literal evaluation.
func (c Chooser) Choose(sets []*core.Set, antiMonotonic bool) Strategy {
	headline, _, _ := c.ChooseEach(sets, antiMonotonic)
	return headline
}

// ChooseEach is Choose deciding per seed set instead of
// first-set-wins: each fixed-point computation gets the strategy its
// own RF estimate justifies, so one chain-shaped set no longer forces
// the ⊖ pre-computation onto scattered-leaf sets where the checking
// iteration is cheaper. It returns the headline strategy (PushDown and
// BruteForce remain whole-query decisions; otherwise SetReduction if
// any set crosses the crossover, Naive if none does — matching what
// Choose used to report), the per-set strategies, and the per-set RF
// estimates. perSet and rfs are nil when the headline decision
// bypasses per-set estimation (PushDown, BruteForce).
func (c Chooser) ChooseEach(sets []*core.Set, antiMonotonic bool) (Strategy, []Strategy, []float64) {
	if antiMonotonic {
		return PushDown, nil, nil
	}
	total := 0
	for _, s := range sets {
		total += s.Len()
	}
	if total <= c.BruteForceLimit {
		return BruteForce, nil, nil
	}
	headline := Naive
	perSet := make([]Strategy, len(sets))
	rfs := make([]float64, len(sets))
	for i, s := range sets {
		rfs[i] = EstimateRF(s, c.SampleSize, c.Seed)
		if rfs[i] >= c.Crossover {
			perSet[i] = SetReduction
			headline = SetReduction
		} else {
			perSet[i] = Naive
		}
	}
	return headline, perSet, rfs
}

// TermStats aggregates what a statistics provider knows about one
// term's witnesses across a shard's documents.
type TermStats struct {
	// Postings is the total posting-list length (seed fragments the
	// term contributes) summed over documents.
	Postings uint64
	// Docs is the number of documents containing the term.
	Docs uint64
	// Eliminable is the number of postings eliminable under
	// Definition 10 within their own document (EliminableWitnesses,
	// summed over documents) — the numerator of the stats-based RF.
	Eliminable uint64
}

// RF returns the statistics-estimated reduction factor
// Eliminable/Postings (0 for an absent term).
func (t TermStats) RF() float64 {
	if t.Postings == 0 {
		return 0
	}
	return float64(t.Eliminable) / float64(t.Postings)
}

// StatsProvider is what the planner consumes: incrementally maintained
// per-shard statistics (internal/stats implements it) that replace
// query-time RF sampling on the hot auto path.
type StatsProvider interface {
	// TermStats returns the aggregate for one normalized term; ok is
	// false when the term is unknown to the shard.
	TermStats(term string) (TermStats, bool)
	// DocCount is the number of documents in the shard.
	DocCount() int
	// StatsEpoch is a counter advanced by every observed mutation;
	// plans stamp the epoch they were computed at so drift can trigger
	// re-planning.
	StatsEpoch() uint64
}
