// Package ranking adds IR-style result ranking on top of the
// database-style filtering model. The paper positions its filters as
// a complement to ranking ("ranking techniques described in those
// studies can be easily incorporated into our work", Section 6); this
// package incorporates them: answer fragments are scored by a
// TF·IDF-weighted keyword score with an XRank-style size/structure
// decay, so presentation layers can order the (already filtered)
// answer set.
package ranking

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// Weights tunes the scoring function. The zero value is not useful;
// start from DefaultWeights.
type Weights struct {
	// SizeDecay multiplies the score by decay^(size-1): larger
	// fragments need proportionally stronger keyword evidence
	// (XRank's element-decay analogue). Must be in (0, 1].
	SizeDecay float64
	// DepthBonus rewards deeper (more specific) fragment roots:
	// score × (1 + DepthBonus·rootDepth).
	DepthBonus float64
	// LeafBonus multiplies the contribution of keyword occurrences on
	// fragment leaves — Definition 8's intuition as a soft signal
	// instead of a hard condition.
	LeafBonus float64
}

// DefaultWeights returns the weights used by the examples and tests.
func DefaultWeights() Weights {
	return Weights{SizeDecay: 0.85, DepthBonus: 0.05, LeafBonus: 1.5}
}

// Scored pairs an answer fragment with its score.
type Scored struct {
	Fragment core.Fragment
	Score    float64
}

// Ranker scores fragments of one indexed document.
type Ranker struct {
	doc     *xmltree.Document
	weights Weights
	// The query terms that occur in the document, in query-term order,
	// with each one's IDF and sorted posting list: Score sums the terms
	// in this fixed order, so a fragment's score is the same bits on
	// every call.
	idf      []float64
	postings [][]xmltree.NodeID
}

// New builds a ranker for the document behind idx, for the given
// (normalized) query terms. A repeated term counts once.
func New(idx *index.Index, terms []string, w Weights) *Ranker {
	if w.SizeDecay <= 0 || w.SizeDecay > 1 {
		w = DefaultWeights()
	}
	r := &Ranker{doc: idx.Document(), weights: w}
	n := float64(r.doc.Len())
	for i, t := range terms {
		if slices.Contains(terms[:i], t) {
			continue
		}
		post := idx.LookupExact(t)
		if len(post) == 0 {
			// A term no node carries adds idf·0 to every score.
			continue
		}
		// Standard smoothed IDF over nodes-as-documents.
		r.idf = append(r.idf, math.Log(1+n/float64(len(post))))
		r.postings = append(r.postings, post)
	}
	return r
}

// Score computes the fragment's relevance score: for each query term,
// the IDF-weighted count of member nodes carrying it (leaves boosted),
// damped by fragment size and boosted by root depth. It allocates
// nothing: membership is a binary search in the term's posting list,
// and a member is a leaf exactly when the next member (IDs are in
// pre-order) lies outside its subtree.
func (r *Ranker) Score(f core.Fragment) float64 {
	ids := f.IDs()
	score := 0.0
	for t, post := range r.postings {
		termScore := 0.0
		lo := 0
		for i, id := range ids {
			j, ok := slices.BinarySearch(post[lo:], id)
			lo += j
			if !ok {
				continue
			}
			w := 1.0
			if i == len(ids)-1 || ids[i+1] > r.doc.SubtreeEnd(id) {
				w = r.weights.LeafBonus
			}
			termScore += w
		}
		score += r.idf[t] * termScore
	}
	score *= math.Pow(r.weights.SizeDecay, float64(f.Size()-1))
	score *= 1 + r.weights.DepthBonus*float64(r.doc.Depth(f.Root()))
	return score
}

// better is Rank's order: descending score, ties broken by the
// canonical fragment order, so ranking is deterministic.
func better(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return core.LessFragments(a.Fragment, b.Fragment)
}

// Rank scores every fragment of the answer set and returns them in
// descending score order, ties broken by the canonical fragment order:
// Top(answers, 0).
func (r *Ranker) Rank(answers *core.Set) []Scored { return r.Top(answers, 0) }

// Top returns the k best answers in Rank's order — exactly
// Rank(answers)[:k] — keeping only k of them while it scores the rest.
// k <= 0, or k at least the answer count, returns every answer.
func (r *Ranker) Top(answers *core.Set, k int) []Scored {
	sel := NewTopK(k, answers.Len(), better)
	for _, f := range answers.Fragments() {
		sel.Offer(Scored{Fragment: f, Score: r.Score(f)})
	}
	return sel.Sorted()
}
