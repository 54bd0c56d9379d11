// Package query implements the paper's query model (Definitions 7–8)
// and the three evaluation strategies of Section 4: brute force,
// set reduction, and anti-monotonic push-down, plus the naive
// fixed-point iteration of Section 3.1.1, and the answer enumeration
// auto runs under a pushable filter. A keyword query
// Q_P{k1,…,km} is answered by σ_P(F1 ⋈* … ⋈* Fm) where
// Fi = σ_{keyword=ki}(nodes(D)); strategies differ only in how that
// expression is evaluated, and all return the same answer set (a
// property the test suite enforces).
package query

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/textutil"
)

// Query is Q_P{k1,…,km} (Definition 7): query terms plus a selection
// predicate given as conjunctive filter clauses. Keeping the clauses
// separate (rather than one opaque predicate) lets the planner push
// the anti-monotonic conjuncts below joins while evaluating the rest
// after them.
type Query struct {
	// Terms are the normalized query terms k1…km, one per conjunctive
	// group, in display form: a plain term ("xquery"), a disjunction
	// ("optimization|rewriting"), or a quoted phrase ("\"cost based\"").
	Terms []string
	// Groups holds, per term, its alternatives: Groups[i][j] is either
	// a normalized term or a quoted phrase. A document node seeds
	// group i when it matches ANY alternative — the disjunctive
	// extension the algebra's distributive law licenses
	// (F1 ⋈ (F2 ∪ F3) = (F1 ⋈ F2) ∪ (F1 ⋈ F3), Section 2.2).
	Groups [][]string
	// Filters are the conjunctive clauses of the selection predicate P.
	Filters []filter.Filter
}

// New builds a query from raw terms and filter clauses. Each raw term
// may be a disjunction of alternatives separated by '|'
// ("optimization|rewriting") and each alternative may be a quoted
// phrase ("\"cost based\""). Terms are normalized and duplicate
// groups collapse. It returns an error if no group survives
// normalization.
func New(terms []string, filters ...filter.Filter) (Query, error) {
	var (
		display []string
		groups  [][]string
	)
	seen := map[string]struct{}{}
	for _, raw := range terms {
		var alts []string
		altSeen := map[string]struct{}{}
		for _, alt := range strings.Split(raw, "|") {
			norm := normalizeAlternative(alt)
			if norm == "" {
				continue
			}
			if _, dup := altSeen[norm]; dup {
				continue
			}
			altSeen[norm] = struct{}{}
			alts = append(alts, norm)
		}
		if len(alts) == 0 {
			continue
		}
		key := strings.Join(alts, "|")
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		display = append(display, key)
		groups = append(groups, alts)
	}
	if len(groups) == 0 {
		return Query{}, fmt.Errorf("query: no usable terms in %q", terms)
	}
	return Query{Terms: display, Groups: groups, Filters: filters}, nil
}

// normalizeAlternative normalizes one group alternative: a quoted
// phrase keeps its quotes with each word normalized; a plain term
// normalizes to a single token.
func normalizeAlternative(alt string) string {
	alt = strings.TrimSpace(alt)
	if IsPhrase(alt) {
		words := textutil.Tokenize(strings.Trim(alt, `"`))
		if len(words) == 0 {
			return ""
		}
		if len(words) == 1 {
			return words[0] // one-word phrase degrades to a term
		}
		return `"` + strings.Join(words, " ") + `"`
	}
	return textutil.NormalizeTerm(alt)
}

// IsPhrase reports whether a normalized alternative is a quoted
// phrase.
func IsPhrase(alt string) bool {
	return len(alt) >= 2 && alt[0] == '"' && alt[len(alt)-1] == '"'
}

// PhraseWords returns the words of a quoted phrase alternative.
func PhraseWords(alt string) []string {
	return strings.Fields(strings.Trim(alt, `"`))
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(terms []string, filters ...filter.Filter) Query {
	q, err := New(terms, filters...)
	if err != nil {
		panic(err)
	}
	return q
}

// Parse builds a query from a whitespace-separated keyword string and
// a filter specification in the internal/filter.Parse grammar, e.g.
// Parse("XQuery optimization", "size<=3,root=//section"). Clauses are
// kept separate so the planner can push the anti-monotonic ones below
// joins even when other clauses are not.
func Parse(keywords, filterSpec string) (Query, error) {
	clauses, err := filter.ParseClauses(filterSpec)
	if err != nil {
		return Query{}, err
	}
	fields, err := splitKeywords(keywords)
	if err != nil {
		return Query{}, err
	}
	return New(fields, clauses...)
}

// splitKeywords splits on whitespace while keeping "quoted phrases"
// together (quotes may appear inside a '|' disjunction too).
func splitKeywords(s string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case !inQuote && (r == ' ' || r == '\t' || r == '\n'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("query: unterminated quote in %q", s)
	}
	flush()
	return fields, nil
}

// Predicate returns the full selection predicate P (the conjunction of
// every clause).
func (q Query) Predicate() filter.Filter {
	return filter.And(q.Filters...)
}

// Pushable returns the conjunction of the anti-monotonic clauses —
// the largest part of P that Theorem 3 licenses pushing below joins.
// With no anti-monotonic clause it returns the accept-all filter.
func (q Query) Pushable() filter.Filter {
	var anti []filter.Filter
	for _, f := range q.Filters {
		if f.AntiMonotonic {
			anti = append(anti, f)
		}
	}
	return filter.And(anti...)
}

// Residual returns the conjunction of the non-anti-monotonic clauses,
// which must run after all joins.
func (q Query) Residual() filter.Filter {
	var rest []filter.Filter
	for _, f := range q.Filters {
		if !f.AntiMonotonic {
			rest = append(rest, f)
		}
	}
	return filter.And(rest...)
}

// PushBounds returns the numeric limits carried by the structural
// anti-monotonic clauses (size/height/depth/width ≤ N), for the
// posting-level pre-filters. Composite clauses (And/Or/Not results)
// carry no bound and contribute nothing.
func (q Query) PushBounds() core.Bounds {
	return filter.BoundsOf(q.Filters...)
}

// HasPushableFilter reports whether at least one clause is
// anti-monotonic (i.e. Pushable is not just accept-all).
func (q Query) HasPushableFilter() bool {
	for _, f := range q.Filters {
		if f.AntiMonotonic {
			return true
		}
	}
	return false
}

// String renders the query in the paper's Q_P{k1, k2} notation.
func (q Query) String() string {
	var sb strings.Builder
	sb.WriteString("Q")
	if len(q.Filters) > 0 {
		sb.WriteString("[" + q.Predicate().String() + "]")
	}
	sb.WriteString("{")
	sb.WriteString(strings.Join(q.Terms, ", "))
	sb.WriteString("}")
	return sb.String()
}

// predicateFunc adapts the full predicate for core.Set.Select, with
// clauses reordered cheap-first (structural bounds, then other
// anti-monotonic clauses, then content predicates) so the conjunction
// short-circuits on the cheapest test. Display strings (Predicate,
// String) keep the query's clause order.
func (q Query) predicateFunc() func(core.Fragment) bool {
	p := filter.And(filter.OrderCheapFirst(q.Filters)...)
	return p.Apply
}

// residualFunc is Residual, cheap first, as a predicate — the part of
// P that pushSelection does not carry, for the answers the enumeration
// produces under the pushed selection. It is nil when there is no
// residual clause.
func (q Query) residualFunc() func(core.Fragment) bool {
	var rest []filter.Filter
	for _, f := range q.Filters {
		if !f.AntiMonotonic {
			rest = append(rest, f)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	return filter.And(filter.OrderCheapFirst(rest)...).Apply
}

// pushSelection is Pushable as the kernel's selection, for the
// filtered fixed points and joins of the push-down strategy: the
// structural limits as Bounds, so the join loops decide them from
// labels before building a pair, and every other pushed clause
// (cheap first) as Keep, asked only of the joins that are built.
func (q Query) pushSelection() core.Selection {
	var rest []filter.Filter
	for _, f := range q.Filters {
		if f.AntiMonotonic && !f.InBounds() {
			rest = append(rest, f)
		}
	}
	sel := core.Selection{Bounds: q.PushBounds()}
	if len(rest) > 0 {
		sel.Keep = filter.And(filter.OrderCheapFirst(rest)...).Apply
	}
	return sel
}
