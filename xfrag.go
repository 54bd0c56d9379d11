// Package xfrag is a Go implementation of the algebraic query model
// for keyword retrieval of XML fragments of Pradhan, "An Algebraic
// Query Model for Effective and Efficient Retrieval of XML Fragments"
// (VLDB 2006).
//
// An XML document is modelled as a rooted ordered tree and a query
// answer is a set of document fragments — connected induced subtrees —
// computed as σ_P(F1 ⋈* … ⋈* Fm): one keyword selection per term,
// combined by the powerset fragment join, restricted by a selection
// predicate P. Anti-monotonic predicates (size, height, width, depth
// bounds and their conjunctions/disjunctions) are pushed below the
// joins, which is the paper's central optimization (Theorem 3).
//
// Quick start:
//
//	eng, err := xfrag.Load("article.xml")
//	if err != nil { ... }
//	ans, err := xfrag.QueryContext(ctx, eng, "xquery optimization", "size<=3")
//	if err != nil { ... }
//	for _, f := range ans.Fragments() {
//		fmt.Println(f)
//	}
//
// QueryContext (keyword and filter strings on one document),
// RunContext (a prebuilt Query) and SearchContext (a Collection) are
// the query entry points; each takes a context first, so deadlines and
// cancellation reach the join loops.
//
// The package is a thin facade over the implementation packages:
// internal/core (the fragment algebra), internal/xmltree (the document
// model), internal/filter, internal/index, internal/query (planning
// and the evaluation strategies), internal/lca (the smallest-subtree
// baseline), internal/cost, internal/engine, internal/docgen and
// internal/relstore.
package xfrag

import (
	"context"
	"net/http"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/httpapi"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// Core model types.
type (
	// Document is an XML document as a rooted ordered tree
	// (Definition 1).
	Document = xmltree.Document
	// NodeID identifies a node by pre-order rank.
	NodeID = xmltree.NodeID
	// Node is a read-only view of one document component.
	Node = xmltree.Node
	// Fragment is a connected induced subtree of a document
	// (Definition 2).
	Fragment = core.Fragment
	// FragmentSet is a deduplicated set of fragments.
	FragmentSet = core.Set
	// Filter is a named selection predicate with a declared
	// anti-monotonicity property (Definitions 3 and 11).
	Filter = filter.Filter
	// Query is Q_P{k1,…,km} (Definition 7).
	Query = query.Query
	// Options controls evaluation strategy selection.
	Options = query.Options
	// Stats reports the work an evaluation performed.
	Stats = query.Stats
	// Result is an answer set plus statistics.
	Result = query.Result
	// Engine answers queries over one indexed document.
	Engine = engine.Engine
	// Answer is a query result bound to its document for
	// presentation (incl. overlap grouping).
	Answer = engine.Answer
	// Strategy identifies an evaluation strategy (Section 4).
	Strategy = cost.Strategy
)

// Evaluation strategies (Section 4; Naive is the checking-based
// fixed-point iteration of Section 3.1.1).
const (
	BruteForce   = cost.BruteForce
	Naive        = cost.Naive
	SetReduction = cost.SetReduction
	PushDown     = cost.PushDown
)

// Load parses and indexes the XML file at path.
func Load(path string) (*Engine, error) { return engine.Load(path) }

// LoadString parses and indexes an XML document held in a string.
func LoadString(name, xml string) (*Engine, error) { return engine.LoadString(name, xml) }

// NewEngine wraps an already-built document.
func NewEngine(doc *Document) *Engine { return engine.New(doc) }

// ParseDocument parses an XML document without building an engine.
func ParseDocument(name, xml string) (*Document, error) { return xmltree.ParseString(name, xml) }

// NewQuery builds a query from raw terms and filter clauses.
func NewQuery(terms []string, filters ...Filter) (Query, error) {
	return query.New(terms, filters...)
}

// ParseQuery builds a query from a keyword string and a filter
// specification such as "size<=3,height<=2".
func ParseQuery(keywords, filterSpec string) (Query, error) {
	return query.Parse(keywords, filterSpec)
}

// Filters (Section 3.3; MaxSize/MaxHeight/MaxWidth/MaxDepth are
// anti-monotonic, EqualDepth and MinSize are the paper's examples of
// filters that are not).
var (
	MaxSize     = filter.MaxSize
	MaxHeight   = filter.MaxHeight
	MaxWidth    = filter.MaxWidth
	MaxDepth    = filter.MaxDepth
	MaxLeaves   = filter.MaxLeaves
	MinSize     = filter.MinSize
	EqualDepth  = filter.EqualDepth
	LeafWitness = filter.LeafWitness
	And         = filter.And
	Or          = filter.Or
	Not         = filter.Not
	ParseFilter = filter.Parse
)

// Algebra operations, exported for programmatic use on fragments.
var (
	// Join is the fragment join f1 ⋈ f2 (Definition 4).
	Join = core.Join
	// PairwiseJoin is F1 ⋈ F2 over sets (Definition 5).
	PairwiseJoin = core.PairwiseJoin
	// PowersetJoin is the literal F1 ⋈* F2 (Definition 6);
	// exponential, bounded.
	PowersetJoin = core.PowersetJoin
	// PowersetJoinFixedPoint is F1 ⋈* F2 via Theorem 2.
	PowersetJoinFixedPoint = core.PowersetJoinFixedPoint
	// FixedPoint is F⁺ via Theorem 1's iteration budget.
	FixedPoint = core.FixedPoint
	// Reduce is the fragment set reduction ⊖(F) (Definition 10).
	Reduce = core.Reduce
	// ReductionFactor is RF = (|F|−|⊖(F)|)/|F| (Section 5).
	ReductionFactor = core.ReductionFactor
	// NewFragment validates and builds a fragment from node IDs.
	NewFragment = core.NewFragment
	// NodeFragment builds the single-node fragment ⟨id⟩.
	NodeFragment = core.NodeFragment
	// NewFragmentSet builds a deduplicated fragment set.
	NewFragmentSet = core.NewSet
)

// Multi-document and presentation extensions (the paper's Sections
// 5–7 discuss ranking, overlap presentation and large collections as
// complements/future work; see DESIGN.md).
type (
	// Collection searches many documents at once, merging ranked hits.
	Collection = collection.Collection
	// Hit is one collection search result.
	Hit = collection.Hit
	// CollectionResult is a merged multi-document search result.
	CollectionResult = collection.Result
	// Ranker scores answer fragments (TF·IDF keyword evidence with
	// size decay).
	Ranker = ranking.Ranker
	// ScoredFragment pairs a fragment with its relevance score.
	ScoredFragment = ranking.Scored
	// RankWeights tunes the scoring function.
	RankWeights = ranking.Weights
)

// NewCollection returns an empty document collection.
func NewCollection() *Collection { return collection.New() }

// NewRanker builds a ranker over the engine's index for the given
// query terms.
func NewRanker(e *Engine, terms []string, w RankWeights) *Ranker {
	return ranking.New(e.Index(), terms, w)
}

// DefaultRankWeights returns the standard scoring weights.
func DefaultRankWeights() RankWeights { return ranking.DefaultWeights() }

// Canceled reports an evaluation stopped by context cancellation or
// deadline expiry; it carries the Stats of the work done before the
// stop and unwraps to context.Canceled / context.DeadlineExceeded, so
// errors.Is(err, context.DeadlineExceeded) works on facade errors.
type Canceled = query.Canceled

// IsCanceled unwraps err to its *Canceled, if any — the way to get at
// the partial Stats of a timed-out evaluation.
func IsCanceled(err error) (*Canceled, bool) { return query.IsCanceled(err) }

// QueryOption configures one evaluation made through the facade entry
// points QueryContext, RunContext and SearchContext. The zero
// configuration picks the strategy automatically (Options.Auto), the
// paper's cost-based choice.
type QueryOption func(*queryConfig)

type queryConfig struct {
	opts    query.Options
	timeout time.Duration
}

func newQueryConfig(options []QueryOption) queryConfig {
	cfg := queryConfig{opts: query.Options{Auto: true}}
	for _, o := range options {
		o(&cfg)
	}
	return cfg
}

// deadline applies WithTimeout to ctx; the returned cancel must run
// when the evaluation is over.
func (c queryConfig) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}

// WithStrategy forces one evaluation strategy instead of the default
// cost-based automatic choice.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) {
		c.opts.Strategy = s
		c.opts.Auto = false
	}
}

// WithTrace records a per-operator span tree into the result.
func WithTrace() QueryOption {
	return func(c *queryConfig) { c.opts.Trace = true }
}

// WithMaxFragments caps how many fragments any intermediate set may
// hold before evaluation aborts (the powerset join is worst-case
// exponential).
func WithMaxFragments(n int) QueryOption {
	return func(c *queryConfig) { c.opts.MaxFragments = n }
}

// WithTimeout bounds the evaluation's wall-clock time even when the
// caller's context carries no deadline; when both exist the earlier
// deadline wins. An expired evaluation returns an error satisfying
// errors.Is(err, context.DeadlineExceeded); see IsCanceled for the
// partial statistics.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.timeout = d }
}

// WithOptions replaces the entire options struct, for callers that
// already hold a query.Options.
func WithOptions(opts Options) QueryOption {
	return func(c *queryConfig) { c.opts = opts }
}

// QueryContext parses and evaluates a keyword/filter query on e under
// ctx: cancellation and deadlines reach the innermost join loops, so
// even a worst-case exponential evaluation stops promptly.
//
//	ans, err := xfrag.QueryContext(ctx, eng, "xquery optimization", "size<=3",
//		xfrag.WithTimeout(200*time.Millisecond))
func QueryContext(ctx context.Context, e *Engine, keywords, filterSpec string, options ...QueryOption) (*Answer, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, e, q, options...)
}

// RunContext evaluates a prebuilt query on e under ctx; see
// QueryContext for the cancellation semantics.
func RunContext(ctx context.Context, e *Engine, q Query, options ...QueryOption) (*Answer, error) {
	cfg := newQueryConfig(options)
	ctx, cancel := cfg.deadline(ctx)
	defer cancel()
	return e.RunContext(ctx, q, cfg.opts)
}

// SearchContext evaluates a keyword/filter query across a collection
// under ctx. Documents finished before a deadline expires keep their
// hits; unfinished ones land in CollectionResult.Errors, so a timed
// out search degrades to partial results.
func SearchContext(ctx context.Context, c *Collection, keywords, filterSpec string, options ...QueryOption) (*CollectionResult, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	cfg := newQueryConfig(options)
	ctx, cancel := cfg.deadline(ctx)
	defer cancel()
	return c.RunContext(ctx, q, cfg.opts)
}

// HTTPConfig tunes the HTTP server's robustness knobs: per-request
// evaluation deadlines and the admission controller that sheds
// overload with 503 + Retry-After.
type HTTPConfig = httpapi.Config

// NewHTTPHandler returns an http.Handler serving the documents c holds
// now as a JSON search API under /api/v1 (see internal/httpapi for
// endpoints). The handler serves an in-memory store loaded from c at
// call time: later changes go through POST and DELETE /api/v1/docs,
// not through c. The handler also implements io.Closer: Close stops
// the server and the store it opened, whose ingest and standing-query
// workers otherwise run for the life of the process.
func NewHTTPHandler(c *Collection) http.Handler { return NewHTTPHandlerWithConfig(c, HTTPConfig{}) }

// NewHTTPHandlerWithConfig is NewHTTPHandler with explicit deadline
// and admission-control settings.
func NewHTTPHandlerWithConfig(c *Collection, cfg HTTPConfig) http.Handler {
	// An in-memory store opens without I/O and cannot fail.
	st, err := store.Open(store.Options{})
	if err != nil {
		panic(err)
	}
	if c != nil {
		for _, name := range c.Names() {
			if eng := c.Engine(name); eng != nil {
				if err := st.Add(eng.Document()); err != nil {
					panic(err)
				}
			}
		}
	}
	return storeHandler{httpapi.NewStoreWithConfig(st, cfg)}
}

// storeHandler is the handler NewHTTPHandler returns: a server over
// an in-memory store that only the handler holds.
type storeHandler struct{ *httpapi.Server }

// Close stops the server, then the store it serves.
func (h storeHandler) Close() error {
	h.Server.Close()
	return h.Store().Close(context.Background())
}

// FragmentXML serializes a fragment as a well-formed XML snippet of
// exactly its nodes, nested per the induced tree.
func FragmentXML(f Fragment) string { return engine.FragmentXML(f) }

// SaveSnapshot persists documents to a snapshot file (atomic write);
// LoadSnapshot reopens them with all derived structures rebuilt.
func SaveSnapshot(path string, docs ...*Document) error { return snapshot.SaveFile(path, docs...) }

// LoadSnapshot loads every document from the snapshot at path.
func LoadSnapshot(path string) ([]*Document, error) { return snapshot.LoadFile(path) }

// FigureOneDocument returns the 82-node example document of the
// paper's Figure 1, on which Table 1 and the running query
// {XQuery, optimization} are defined.
func FigureOneDocument() *Document { return docgen.FigureOne() }

// GenerateDocument builds a synthetic document-centric XML document;
// see internal/docgen.Config for the knobs.
func GenerateDocument(cfg GeneratorConfig) (*Document, error) { return docgen.Generate(cfg) }

// GeneratorConfig configures GenerateDocument.
type GeneratorConfig = docgen.Config
