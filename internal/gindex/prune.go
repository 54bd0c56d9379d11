// Posting-first candidate selection: given a keyword query with
// pushed anti-monotonic bounds, a shard's posting lists decide which
// documents can possibly contain an answer — before any per-document
// evaluation runs. Two sound prunes compose:
//
//  1. Conjunction: an answer contains a witness for every term group,
//     so a document missing any group entirely is out.
//
//  2. Label arithmetic (the push-down of Section 3.3 lifted to
//     postings): any answer fragment is connected and contains one
//     witness per group, hence for every group pair (wi, wj) it also
//     contains their LCA and both root-ward paths. With cpl the
//     common-prefix length of the witnesses' Dewey labels (= the
//     LCA's depth) this forces
//
//     size   ≥ depth(wi) + depth(wj) − 2·cpl + 1
//     height ≥ max(depth(wi), depth(wj)) − cpl
//     width  ≥ |node(wi) − node(wj)|           (pre-order span)
//
//     and independently, maxdepth ≥ depth of whichever witness the
//     answer picks — at least the group's minimum witness depth. If
//     the minimum over all witness pairs of a group pair already
//     exceeds a pushed bound, every answer in the document would
//     violate it: the document is pruned without materializing a
//     single fragment.
//
// Phrase alternatives are approximated by the conjunction of their
// words (the index has no token adjacency); that is a superset of the
// true witnesses, which can only keep extra documents — never prune a
// true answer. Both prunes therefore preserve answers exactly; the
// cross-check tests compare against the tree path byte for byte.
package gindex

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/query"
)

// Candidates is the outcome of posting-first selection on one shard.
type Candidates struct {
	// Names are the documents that survived, in ingest order.
	Names []string
	// Total is the shard's live document count, for pruned-docs
	// accounting.
	Total int
	// Consulted is false when the query gave the index nothing to work
	// with (no term groups); the caller must evaluate every document.
	Consulted bool
}

// witness is one group occurrence inside a candidate document.
type witness struct {
	post Posting
}

// Candidates runs posting-first selection for q on this shard. The
// result never excludes a document containing an answer: conjunction
// uses the same normalized term groups the evaluator seeds from, and
// the bound prunes are anti-monotonic lower-bound arguments (see the
// package comment). pp bounds the per-document pair work; group pairs
// whose witness product exceeds the budget are simply not used to
// prune.
func (sh *Shard) Candidates(q query.Query, pp cost.PostingPrune) Candidates {
	groups := q.Groups
	if len(groups) == 0 {
		// Struct-literal queries carry plain terms only.
		for _, t := range q.Terms {
			groups = append(groups, []string{t})
		}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	total := len(sh.byName)
	if len(groups) == 0 {
		return Candidates{Names: nil, Total: total, Consulted: false}
	}
	if total == 0 {
		return Candidates{Names: []string{}, Total: 0, Consulted: true}
	}

	// Gather each group's witnesses per document.
	perGroup := make([]map[uint32][]witness, len(groups))
	for gi, alts := range groups {
		wits := make(map[uint32][]witness)
		for _, alt := range alts {
			var posts []Posting
			if query.IsPhrase(alt) {
				posts = sh.phrasePostingsLocked(query.PhraseWords(alt))
			} else {
				posts = sh.postingsLocked(alt)
			}
			for _, p := range posts {
				wits[p.Doc] = append(wits[p.Doc], witness{post: p})
			}
		}
		if len(wits) == 0 {
			// Some group matches nowhere in this shard: conjunction is
			// empty everywhere.
			return Candidates{Names: []string{}, Total: total, Consulted: true}
		}
		if len(alts) > 1 {
			// Alternatives may overlap on a node; dedupe per document.
			for doc, ws := range wits {
				wits[doc] = dedupeWitnesses(ws)
			}
		}
		perGroup[gi] = wits
	}

	// Intersect on the smallest group.
	smallest := 0
	for gi := range perGroup {
		if len(perGroup[gi]) < len(perGroup[smallest]) {
			smallest = gi
		}
	}
	bounds := q.PushBounds()
	var ids []uint32
docs:
	for doc := range perGroup[smallest] {
		for gi := range perGroup {
			if gi == smallest {
				continue
			}
			if _, ok := perGroup[gi][doc]; !ok {
				continue docs
			}
		}
		if bounds.Depth > 0 {
			for gi := range perGroup {
				if minWitnessDepth(perGroup[gi][doc]) > bounds.Depth {
					continue docs
				}
			}
		}
		if bounds.Pairwise() && len(perGroup) >= 2 {
			for i := 0; i < len(perGroup); i++ {
				for j := i + 1; j < len(perGroup); j++ {
					wi, wj := perGroup[i][doc], perGroup[j][doc]
					if !pp.PairFeasible(len(wi), len(wj)) {
						continue
					}
					if pairBoundsViolated(wi, wj, bounds) {
						continue docs
					}
				}
			}
		}
		ids = append(ids, doc)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = sh.docs[id].name
	}
	return Candidates{Names: names, Total: total, Consulted: true}
}

// phrasePostingsLocked approximates a phrase's witnesses by the nodes
// containing every word: the per-word lists are intersected on
// (doc, node) keys with the galloping merge, then the first word's
// postings are filtered to the surviving keys (any word's posting
// carries the same node and label).
func (sh *Shard) phrasePostingsLocked(words []string) []Posting {
	if len(words) == 0 {
		return nil
	}
	first := sh.postingsLocked(words[0])
	if len(words) == 1 {
		return first
	}
	keys := postingKeys(first)
	for _, w := range words[1:] {
		next := postingKeys(sh.postingsLocked(w))
		keys = index.IntersectSorted(keys[:0], keys, next)
		if len(keys) == 0 {
			return nil
		}
	}
	out := first[:0:0]
	k := 0
	for _, p := range first {
		key := postingKey(p)
		for k < len(keys) && keys[k] < key {
			k++
		}
		if k < len(keys) && keys[k] == key {
			out = append(out, p)
		}
	}
	return out
}

// postingKey packs (doc, node) into one ordered uint64.
func postingKey(p Posting) uint64 {
	return uint64(p.Doc)<<32 | uint64(uint32(p.Node))
}

func postingKeys(posts []Posting) []uint64 {
	keys := make([]uint64, len(posts))
	for i, p := range posts {
		keys[i] = postingKey(p)
	}
	return keys
}

// dedupeWitnesses sorts by node and drops duplicates (a node matching
// two alternatives of one group is one witness).
func dedupeWitnesses(ws []witness) []witness {
	sort.Slice(ws, func(i, j int) bool { return ws[i].post.Node < ws[j].post.Node })
	out := ws[:0]
	for i, w := range ws {
		if i == 0 || w.post.Node != ws[i-1].post.Node {
			out = append(out, w)
		}
	}
	return out
}

func minWitnessDepth(ws []witness) int {
	min := int(^uint(0) >> 1)
	for _, w := range ws {
		if d := len(w.post.Dewey); d < min {
			min = d
		}
	}
	return min
}

// pairBoundsViolated reports whether EVERY witness pair of the two
// groups violates some pushed bound (core.PairBound) — the condition
// under which no answer can exist in the document. The Dewey labels
// give the depths and the LCA depth (their common prefix); the span is
// the witnesses' ID distance.
func pairBoundsViolated(wi, wj []witness, b core.Bounds) bool {
	pb := b.PairBound()
	for _, a := range wi {
		da := len(a.post.Dewey)
		for _, c := range wj {
			span := int(a.post.Node) - int(c.post.Node)
			if span < 0 {
				span = -span
			}
			if pb.Fit(da, len(c.post.Dewey), commonPrefixLen(a.post.Dewey, c.post.Dewey), span) {
				return false
			}
		}
	}
	return pb.Violated()
}

func commonPrefixLen(a, b []int32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
