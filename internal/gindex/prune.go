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
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/xmltree"
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

// Candidates runs posting-first selection for q on this shard. The
// result never excludes a document containing an answer: conjunction
// uses the same normalized term groups the evaluator seeds from, and
// the bound prunes are anti-monotonic lower-bound arguments (see the
// package comment). pp bounds the per-document pair work; group pairs
// whose witness product exceeds the budget are simply not used to
// prune.
//
// The selection walks each group's live postings where they lie. A
// term's disk list and memtable list are each sorted by (Doc, Node)
// and every disk doc ID precedes every memtable one, so together they
// read as one sorted list, and a document's postings are one run of
// it. The groups' documents intersect by a leapfrog merge over those
// runs; a disjunctive group merges its alternatives' runs by node, and
// a phrase intersects its words' runs, into reused scratch. Nothing
// is copied per posting and no map is built; the surviving names come
// out in ascending doc ID, which is ingest order.
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
	names := []string{}
	if total == 0 {
		return Candidates{Names: names, Total: 0, Consulted: true}
	}
	w := getWalk()
	defer w.release()
	w.init(sh, groups)
	bounds := q.PushBounds()
	gs := w.groups
	doc := uint32(0)
docs:
	for {
		for gi := range gs {
			if !gs[gi].seek(sh, doc) {
				break docs
			}
			if gs[gi].doc > doc {
				doc = gs[gi].doc
				continue docs
			}
		}
		// Every group has witnesses in doc.
		if feasible(gs, bounds, pp) {
			names = append(names, sh.docs[doc].name)
		}
		if doc == math.MaxUint32 {
			break
		}
		doc++
	}
	return Candidates{Names: names, Total: total, Consulted: true}
}

// feasible applies the bound prunes to the groups' witnesses in their
// common current document.
func feasible(gs []group, bounds core.Bounds, pp cost.PostingPrune) bool {
	if bounds.Depth > 0 {
		for gi := range gs {
			if minWitnessDepth(gs[gi].witnesses()) > bounds.Depth {
				return false
			}
		}
	}
	if bounds.Pairwise() && len(gs) >= 2 {
		for i := 0; i < len(gs); i++ {
			for j := i + 1; j < len(gs); j++ {
				wi, wj := gs[i].witnesses(), gs[j].witnesses()
				if !pp.PairFeasible(len(wi), len(wj)) {
					continue
				}
				if pairBoundsViolated(wi, wj, bounds) {
					return false
				}
			}
		}
	}
	return true
}

// cursor walks one term's live postings a document at a time: the disk
// list, then the memtable list, which together read as one list sorted
// by (Doc, Node). run is the current document's postings.
type cursor struct {
	lists [2][]Posting
	li    int // list being walked
	pos   int // start of run in lists[li]
	run   []Posting
}

// seek moves to the first live document at or after doc, reporting
// false when the term has none.
func (c *cursor) seek(sh *Shard, doc uint32) bool {
	if len(c.run) > 0 && c.run[0].Doc >= doc {
		return true
	}
	for ; c.li < len(c.lists); c.li, c.pos = c.li+1, 0 {
		l := c.lists[c.li]
		for {
			rest := l[c.pos:]
			i := c.pos + sort.Search(len(rest), func(i int) bool { return rest[i].Doc >= doc })
			if i == len(l) {
				break
			}
			d := l[i].Doc
			j := i + 1
			for j < len(l) && l[j].Doc == d {
				j++
			}
			if sh.dead[d] {
				c.pos, doc = j, d+1
				continue
			}
			c.pos, c.run = i, l[i:j]
			return true
		}
	}
	c.run = nil
	return false
}

// source is one alternative of a group: a term's cursor, or a phrase's
// word cursors. A phrase's witnesses are approximated by the nodes
// carrying every word: its first word's postings at nodes all its
// words' runs share, kept in buf.
type source struct {
	words []cursor
	doc   uint32
	run   []Posting
	buf   []Posting
	done  bool
}

// seek moves to the first document at or after doc holding a witness
// of the alternative, reporting false when there is none.
func (s *source) seek(sh *Shard, doc uint32) bool {
	if s.done {
		return false
	}
	if len(s.run) > 0 && s.doc >= doc {
		return true
	}
next:
	for {
		for i := range s.words {
			if !s.words[i].seek(sh, doc) {
				s.done, s.run = true, nil
				return false
			}
			if d := s.words[i].run[0].Doc; d > doc {
				doc = d
				continue next
			}
		}
		s.doc, s.run = doc, s.words[0].run
		if len(s.words) == 1 {
			return true
		}
		s.buf = s.buf[:0]
	nodes:
		for _, p := range s.run {
			for i := 1; i < len(s.words); i++ {
				if !hasNode(s.words[i].run, p.Node) {
					continue nodes
				}
			}
			s.buf = append(s.buf, p)
		}
		if s.run = s.buf; len(s.run) > 0 {
			return true
		}
		if doc == math.MaxUint32 {
			s.done = true
			return false
		}
		doc++
	}
}

// hasNode reports whether the node-sorted run holds node.
func hasNode(run []Posting, node xmltree.NodeID) bool {
	i := sort.Search(len(run), func(i int) bool { return run[i].Node >= node })
	return i < len(run) && run[i].Node == node
}

// group is one conjunctive term group: its alternatives and the
// document it is on, the smallest any alternative is on.
type group struct {
	alts []source
	doc  uint32
	at   bool // doc is valid
	// buf holds the alternatives' runs in doc merged by node, once
	// merged is set.
	buf    []Posting
	merged bool
}

// seek moves to the first document at or after doc where some
// alternative has a witness, reporting false when none is left.
func (g *group) seek(sh *Shard, doc uint32) bool {
	if g.at && g.doc >= doc {
		return true
	}
	g.at, g.merged = false, false
	for i := range g.alts {
		if g.alts[i].seek(sh, doc) && (!g.at || g.alts[i].doc < g.doc) {
			g.doc, g.at = g.alts[i].doc, true
		}
	}
	return g.at
}

// witnesses returns the group's witnesses in its current document,
// sorted by node: one alternative's run in place, or several merged
// with the duplicates dropped (a node matching two alternatives is one
// witness).
func (g *group) witnesses() []Posting {
	if len(g.alts) == 1 {
		return g.alts[0].run
	}
	if g.merged {
		return g.buf
	}
	g.buf = g.buf[:0]
	for i := range g.alts {
		if a := &g.alts[i]; !a.done && a.doc == g.doc {
			g.buf = mergeByNode(g.buf, a.run)
		}
	}
	g.merged = true
	return g.buf
}

// mergeByNode merges run into the node-sorted buf in place, keeping
// one posting per node.
func mergeByNode(buf, run []Posting) []Posting {
	n := len(buf)
	for _, p := range run {
		if !hasNode(buf[:n], p.Node) {
			buf = append(buf, p)
		}
	}
	slices.SortFunc(buf, func(a, b Posting) int { return int(a.Node) - int(b.Node) })
	return buf
}

// walk is Candidates' scratch, reused across calls: the groups, their
// alternatives and the alternatives' word cursors.
type walk struct {
	groups  []group
	alts    []source
	cursors []cursor
}

// idleWalks holds walks between calls. Like core's idle enumerators it
// is a buffered channel rather than a sync.Pool, so reuse — and the
// allocation pin on Candidates — does not depend on GC timing or the
// race detector. 32 covers the shards a search scans at once on a few
// cores; a walk released beyond that is dropped.
var idleWalks = make(chan *walk, 32)

// maxPooledPostings bounds the merge buffers a walk may keep when it
// goes idle.
const maxPooledPostings = 1 << 14

func getWalk() *walk {
	select {
	case w := <-idleWalks:
		return w
	default:
		return new(walk)
	}
}

// init lays out one group per query group, one source per alternative
// and one cursor per word, each cursor over the word's disk and
// memtable lists. Buffers left from earlier calls are kept.
func (w *walk) init(sh *Shard, groups [][]string) {
	w.groups = slices.Grow(w.groups[:0], len(groups))[:len(groups)]
	w.alts = w.alts[:0]
	w.cursors = w.cursors[:0]
	type span struct{ first, n int }
	var altSpans, wordSpans [8]span
	altOf, wordOf := altSpans[:0], wordSpans[:0]
	for _, alts := range groups {
		altOf = append(altOf, span{len(w.alts), len(alts)})
		for _, alt := range alts {
			words := []string{alt}
			if query.IsPhrase(alt) {
				words = query.PhraseWords(alt)
			}
			wordOf = append(wordOf, span{len(w.cursors), len(words)})
			for _, t := range words {
				w.cursors = append(w.cursors, cursor{lists: [2][]Posting{sh.disk[t], sh.mem[t]}})
			}
			w.alts = slices.Grow(w.alts, 1)[:len(w.alts)+1]
			a := &w.alts[len(w.alts)-1]
			*a = source{buf: a.buf[:0]}
		}
	}
	for i := range w.alts {
		w.alts[i].words = w.cursors[wordOf[i].first : wordOf[i].first+wordOf[i].n]
	}
	for i := range w.groups {
		g := &w.groups[i]
		*g = group{buf: g.buf[:0], alts: w.alts[altOf[i].first : altOf[i].first+altOf[i].n]}
	}
}

// release drops the walk's references into the shard and returns it
// to the idle list, unless a buffer grew past maxPooledPostings.
func (w *walk) release() {
	clear(w.cursors)
	for i := range w.alts {
		a := &w.alts[i]
		if cap(a.buf) > maxPooledPostings {
			return
		}
		*a = source{buf: a.buf[:0]}
	}
	for i := range w.groups {
		g := &w.groups[i]
		if cap(g.buf) > maxPooledPostings {
			return
		}
		*g = group{buf: g.buf[:0]}
	}
	select {
	case idleWalks <- w:
	default:
	}
}

func minWitnessDepth(ws []Posting) int {
	min := int(^uint(0) >> 1)
	for _, w := range ws {
		if d := len(w.Dewey); d < min {
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
func pairBoundsViolated(wi, wj []Posting, b core.Bounds) bool {
	pb := b.PairBound()
	for _, a := range wi {
		da := len(a.Dewey)
		for _, c := range wj {
			span := int(a.Node) - int(c.Node)
			if span < 0 {
				span = -span
			}
			if pb.Fit(da, len(c.Dewey), commonPrefixLen(a.Dewey, c.Dewey), span) {
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
