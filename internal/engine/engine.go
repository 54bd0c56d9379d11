// Package engine is the facade tying the substrates together: it owns
// a parsed document and its inverted index, answers keyword queries
// through the algebra, exposes the SLCA baseline for comparison, and
// presents answers with the overlap grouping discussed in the paper's
// Section 5 (overlapping answers are sub-fragments of target fragments
// and "it is only a question of how they should be presented").
package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Engine answers keyword queries over one document. Create with New,
// Load or LoadString; safe for concurrent queries afterwards — every
// evaluation counts its operator work privately (query.Stats.Ops), so
// concurrent queries never perturb each other's statistics.
type Engine struct {
	doc     *xmltree.Document
	idx     *index.Index
	metrics *obs.Metrics // nil unless created via NewWithMetrics
}

// New wraps an already-built document.
func New(doc *xmltree.Document) *Engine {
	return &Engine{doc: doc, idx: index.New(doc)}
}

// NewWithMetrics wraps an already-built document and records every
// evaluation into m (query totals, per-operator counters, latency and
// answer-size histograms). A nil m behaves like New.
func NewWithMetrics(doc *xmltree.Document, m *obs.Metrics) *Engine {
	e := New(doc)
	e.metrics = m
	return e
}

// NewFromPostings wraps a document whose inverted index is
// reconstituted from already-computed postings (term → ascending node
// IDs, exactly what index.New would have produced), skipping the
// tokenization scan. The global term index uses it on WAL replay so
// restart does not re-derive postings the segments already hold. A
// nil m disables metrics, as in New.
func NewFromPostings(doc *xmltree.Document, postings map[string][]xmltree.NodeID, m *obs.Metrics) *Engine {
	return &Engine{doc: doc, idx: index.FromPostings(doc, postings), metrics: m}
}

// Metrics returns the engine's registry (nil when created without
// one).
func (e *Engine) Metrics() *obs.Metrics { return e.metrics }

// Load parses the XML file at path and indexes it.
func Load(path string) (*Engine, error) {
	doc, err := xmltree.ParseFile(path)
	if err != nil {
		return nil, err
	}
	return New(doc), nil
}

// LoadString parses an XML document from a string and indexes it.
func LoadString(name, xml string) (*Engine, error) {
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		return nil, err
	}
	return New(doc), nil
}

// Document returns the engine's document.
func (e *Engine) Document() *xmltree.Document { return e.doc }

// Index returns the engine's inverted index.
func (e *Engine) Index() *index.Index { return e.idx }

// RunContext evaluates an already-built query under ctx: cancellation
// or deadline expiry stops the evaluation cooperatively inside the join
// loops (see query.EvaluateContext) and returns a *query.Canceled error
// carrying the partial statistics. A stopped evaluation records its
// partial operator counts into the metrics registry under a
// query-timeout counter, so shed work remains attributable. Parse
// keyword/filter strings with query.Parse.
func (e *Engine) RunContext(ctx context.Context, q query.Query, opts query.Options) (*Answer, error) {
	start := time.Now()
	res, err := query.EvaluateContext(ctx, e.idx, q, opts)
	if err != nil {
		e.metrics.Counter(obs.MQueryErrors).Add(1)
		if c, ok := query.IsCanceled(err); ok {
			e.metrics.Counter(obs.MQueryTimeouts).Add(1)
			e.metrics.RecordEval(c.Stats.Ops, time.Since(start), 0)
			e.metrics.RecordStages(c.Stats.Stages)
		}
		return nil, err
	}
	e.metrics.RecordEval(res.Stats.Ops, time.Since(start), res.Stats.Answers)
	e.metrics.RecordStages(res.Stats.Stages)
	return &Answer{doc: e.doc, Query: q, Result: res}, nil
}

// SLCA returns the conventional smallest-subtree baseline answer for
// the terms: the SLCA roots in document order.
func (e *Engine) SLCA(keywords string) []xmltree.NodeID {
	return lca.SLCA(e.idx, strings.Fields(keywords))
}

// ELCA returns the XRank-style exclusive LCA baseline answer.
func (e *Engine) ELCA(keywords string) []xmltree.NodeID {
	return lca.ELCA(e.idx, strings.Fields(keywords))
}

// Answer is a query result bound to its document for presentation.
type Answer struct {
	doc    *xmltree.Document
	Query  query.Query
	Result query.Result
}

// Fragments returns the answer fragments in canonical order (smallest
// first, then by node IDs).
func (a *Answer) Fragments() []core.Fragment {
	return a.Result.Answers.Sorted()
}

// Len returns the number of answer fragments.
func (a *Answer) Len() int { return a.Result.Answers.Len() }

// Group pairs a target fragment with the overlapping answers nested
// inside it.
type Group struct {
	// Target is a maximal answer fragment (not a sub-fragment of any
	// other answer).
	Target core.Fragment
	// Overlapping are answer fragments properly contained in Target,
	// largest first.
	Overlapping []core.Fragment
}

// Groups organizes the answer set as Section 5 suggests: maximal
// ("target") fragments carry their sub-fragments as overlapping
// answers, so a presentation layer can show structure instead of a
// flat list dominated by structurally related results. A fragment
// contained in several targets is attached to the first in canonical
// order.
func (a *Answer) Groups() []Group {
	frags := a.Fragments() // canonical: smallest first
	n := len(frags)
	// Maximal = not a proper subset of any other answer fragment.
	isSub := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := n - 1; j > i; j-- {
			if len(frags[j].IDs()) <= len(frags[i].IDs()) {
				break
			}
			if frags[i].SubsetOf(frags[j]) {
				isSub[i] = true
				break
			}
		}
	}
	var groups []Group
	for i := n - 1; i >= 0; i-- { // largest first as targets
		if !isSub[i] {
			groups = append(groups, Group{Target: frags[i]})
		}
	}
	for i := n - 1; i >= 0; i-- {
		if !isSub[i] {
			continue
		}
		for gi := range groups {
			if frags[i].SubsetOf(groups[gi].Target) && !frags[i].Equal(groups[gi].Target) {
				groups[gi].Overlapping = append(groups[gi].Overlapping, frags[i])
				break
			}
		}
	}
	return groups
}

// Witnesses maps each query term (group) to the nodes of f that
// carry it — the evidence a presentation layer highlights. For a
// disjunctive group ("a|b") a node witnesses it by carrying any
// alternative; phrase alternatives count when every phrase word is
// present on the node. Groups the fragment does not contain map to
// nil (cannot happen for answer fragments, whose conjunctive
// semantics guarantees a witness per group).
func (a *Answer) Witnesses(f core.Fragment) map[string][]xmltree.NodeID {
	groups := a.Query.Groups
	if groups == nil {
		for _, t := range a.Query.Terms {
			groups = append(groups, []string{t})
		}
	}
	out := make(map[string][]xmltree.NodeID, len(groups))
	for gi, alts := range groups {
		var nodes []xmltree.NodeID
		for _, id := range f.IDs() {
			if nodeMatchesGroup(a.doc, id, alts) {
				nodes = append(nodes, id)
			}
		}
		out[a.Query.Terms[gi]] = nodes
	}
	return out
}

func nodeMatchesGroup(doc *xmltree.Document, id xmltree.NodeID, alts []string) bool {
	for _, alt := range alts {
		if query.IsPhrase(alt) {
			all := true
			for _, w := range query.PhraseWords(alt) {
				if !doc.HasKeyword(id, w) {
					all = false
					break
				}
			}
			if all {
				return true
			}
			continue
		}
		if doc.HasKeyword(id, alt) {
			return true
		}
	}
	return false
}

// Targets returns only the maximal answer fragments, hiding
// overlapping sub-answers entirely — the paper's first presentation
// option for overlapping answers ("they can be completely hidden",
// Section 5). Order is largest first, matching Groups.
func (a *Answer) Targets() []core.Fragment {
	groups := a.Groups()
	out := make([]core.Fragment, len(groups))
	for i, g := range groups {
		out[i] = g.Target
	}
	return out
}

// WriteFragment renders one fragment as an indented outline of its
// nodes (indentation relative to the fragment root), with each node's
// tag and truncated text.
func (a *Answer) WriteFragment(w io.Writer, f core.Fragment) error {
	base := a.doc.Depth(f.Root())
	for _, id := range f.IDs() {
		text := a.doc.Text(id)
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		pad := strings.Repeat("  ", a.doc.Depth(id)-base)
		if _, err := fmt.Fprintf(w, "%s%s <%s> %s\n", pad, id, a.doc.Tag(id), text); err != nil {
			return err
		}
	}
	return nil
}

// Render returns the whole answer as text: one block per group, target
// first, overlapping answers indented beneath a marker.
func (a *Answer) Render() string {
	var sb strings.Builder
	groups := a.Groups()
	fmt.Fprintf(&sb, "%s → %d fragment(s), %d group(s) [strategy=%v, joins=%d]\n",
		a.Query, a.Len(), len(groups), a.Result.Stats.Strategy, a.Result.Stats.Joins)
	for gi, g := range groups {
		fmt.Fprintf(&sb, "-- group %d: target %s\n", gi+1, g.Target)
		a.WriteFragment(&sb, g.Target)
		for _, o := range g.Overlapping {
			fmt.Fprintf(&sb, "   overlapping: %s\n", o)
		}
	}
	return sb.String()
}
