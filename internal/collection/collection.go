// Package collection scales the engine from one document to a corpus,
// backing the paper's closing claim that the model "can accommodate a
// very large collection of XML documents" (Section 7). Documents are
// indexed independently; a query fans out across them concurrently
// (fragments never span documents — Definition 2 ties a fragment to
// one tree) and results merge into a single ranked list.
package collection

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/stats"
	"repro/internal/textutil"
	"repro/internal/xmltree"
)

// ChangeKind classifies one mutation of a collection's contents.
type ChangeKind int

const (
	// ChangeUpsert is a document added or replaced; Name identifies it.
	ChangeUpsert ChangeKind = iota
	// ChangeRemove is a document removed; Name identifies it.
	ChangeRemove
	// ChangeReset is a wholesale contents swap (SetAll): every
	// document may have changed, so consumers must re-derive any view
	// instead of applying per-document deltas. Name is empty.
	ChangeReset
)

// Change is one entry of the collection's change feed: the minimal
// fact a view maintainer needs ("this name changed", not the payload —
// the consumer looks up the current engine at apply time, which makes
// dropped intermediate notifications harmless).
type Change struct {
	Kind ChangeKind
	Name string
}

// Collection is a set of named, indexed documents. Add documents
// first, then query; Add and RunContext must not run concurrently with
// each other, but any number of searches may run in parallel.
type Collection struct {
	mu      sync.RWMutex
	engines map[string]*engine.Engine
	order   []string     // insertion order, for deterministic iteration
	metrics *obs.Metrics // shared by every per-document engine
	// workers bounds the per-document fan-out of RunContext;
	// 0 means GOMAXPROCS (see SetSearchWorkers).
	workers int
	// listener, when set, observes every mutation (see
	// SetChangeListener). Called under the write lock, so mutation
	// order and notification order agree.
	listener func(Change)
	// stats, when set, is maintained incrementally on every mutation
	// path under the write lock (see SetStatsShard), so planner
	// statistics can never drift from the installed engines.
	stats *stats.Shard
}

// New returns an empty collection. Every engine it creates shares one
// metrics registry, exposed by Metrics.
func New() *Collection {
	return &Collection{
		engines: make(map[string]*engine.Engine),
		metrics: obs.NewMetrics(),
	}
}

// Metrics returns the collection-wide registry that every
// per-document engine records into.
func (c *Collection) Metrics() *obs.Metrics { return c.metrics }

// SetSearchWorkers bounds how many documents a single RunContext
// evaluates concurrently. n <= 0 restores the default
// (GOMAXPROCS). Safe to call between searches; a search in flight
// keeps the bound it started with.
func (c *Collection) SetSearchWorkers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.workers = n
}

// SetChangeListener registers fn to observe every subsequent mutation
// of the collection's contents: an upsert or remove per document, or a
// reset after SetAll. fn runs under the collection's write lock — it
// MUST be fast and non-blocking (hand the change to a queue) and must
// not call back into the collection. One listener; nil unregisters.
func (c *Collection) SetChangeListener(fn func(Change)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listener = fn
}

// notifyLocked fires the change listener. Caller holds the write lock.
func (c *Collection) notifyLocked(ch Change) {
	if c.listener != nil {
		c.listener(ch)
	}
}

// SetStatsShard attaches a per-shard statistics accumulator that the
// collection maintains incrementally on every mutation path — direct
// writes, async ingest, WAL replay, replica apply and SetAll all funnel
// through Add/AddWithPostings/Replace/Remove/SetAll, so hooking those
// five methods under the write lock covers them all. The shard is
// rebuilt from the current contents on attach, so ordering relative to
// earlier mutations does not matter. nil detaches.
func (c *Collection) SetStatsShard(s *stats.Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = s
	if s == nil {
		return
	}
	s.Reset()
	for _, name := range c.order {
		eng := c.engines[name]
		s.ObserveUpsert(eng.Document(), eng.Index())
	}
	c.publishEpochLocked()
}

// StatsShard returns the attached statistics shard (nil if none).
func (c *Collection) StatsShard() *stats.Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// observeUpsertLocked feeds one installed engine into the statistics
// shard. Caller holds the write lock.
func (c *Collection) observeUpsertLocked(eng *engine.Engine) {
	if c.stats == nil {
		return
	}
	c.stats.ObserveUpsert(eng.Document(), eng.Index())
	c.publishEpochLocked()
}

// observeRemoveLocked subtracts one departing engine from the
// statistics shard. Caller holds the write lock.
func (c *Collection) observeRemoveLocked(eng *engine.Engine) {
	if c.stats == nil {
		return
	}
	c.stats.ObserveRemove(eng.Document(), eng.Index())
	c.publishEpochLocked()
}

// publishEpochLocked mirrors the statistics epoch onto the metrics
// registry so drift (and the re-planning it triggers) is observable.
func (c *Collection) publishEpochLocked() {
	c.metrics.Gauge(obs.MPlannerStatsEpoch).Set(int64(c.stats.StatsEpoch()))
}

// Add indexes doc under its document name. It returns an error if the
// name is already taken.
func (c *Collection) Add(doc *xmltree.Document) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := doc.Name()
	if _, dup := c.engines[name]; dup {
		return fmt.Errorf("collection: duplicate document %q", name)
	}
	eng := engine.NewWithMetrics(doc, c.metrics)
	c.engines[name] = eng
	c.order = append(c.order, name)
	c.observeUpsertLocked(eng)
	c.notifyLocked(Change{Kind: ChangeUpsert, Name: name})
	return nil
}

// AddWithPostings indexes doc under its name using an
// already-computed postings map (see engine.NewFromPostings) instead
// of tokenizing the document again. Semantics otherwise match Add.
func (c *Collection) AddWithPostings(doc *xmltree.Document, postings map[string][]xmltree.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := doc.Name()
	if _, dup := c.engines[name]; dup {
		return fmt.Errorf("collection: duplicate document %q", name)
	}
	eng := engine.NewFromPostings(doc, postings, c.metrics)
	c.engines[name] = eng
	c.order = append(c.order, name)
	c.observeUpsertLocked(eng)
	c.notifyLocked(Change{Kind: ChangeUpsert, Name: name})
	return nil
}

// AddXML parses and indexes an XML document held in a string.
func (c *Collection) AddXML(name, xml string) error {
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		return err
	}
	return c.Add(doc)
}

// SetAll atomically replaces the collection's entire contents with
// docs. The new engines are indexed off to the side and swapped in
// under a single write-lock acquisition, so a concurrent Search sees
// either the old corpus or the new one in full — never a
// partially-populated state. Duplicate names in docs are an error and
// leave the collection unchanged.
func (c *Collection) SetAll(docs []*xmltree.Document) error {
	engines := make(map[string]*engine.Engine, len(docs))
	order := make([]string, 0, len(docs))
	for _, doc := range docs {
		name := doc.Name()
		if _, dup := engines[name]; dup {
			return fmt.Errorf("collection: duplicate document %q", name)
		}
		engines[name] = engine.NewWithMetrics(doc, c.metrics)
		order = append(order, name)
	}
	c.mu.Lock()
	c.engines = engines
	c.order = order
	if c.stats != nil {
		c.stats.Reset()
		for _, name := range order {
			c.stats.ObserveUpsert(engines[name].Document(), engines[name].Index())
		}
		c.publishEpochLocked()
	}
	// A swap invalidates every per-document delta a watcher may have
	// derived: signal a reset so views re-snapshot instead of silently
	// diverging.
	c.notifyLocked(Change{Kind: ChangeReset})
	c.mu.Unlock()
	return nil
}

// Replace installs doc under its name, replacing any existing document
// atomically: the new engine is indexed outside the lock and swapped
// in under a single write-lock acquisition, so a concurrent Search
// sees the old document or the new one — never a window where the
// name is absent (which Remove followed by Add would open). Reports
// whether an existing document was replaced.
func (c *Collection) Replace(doc *xmltree.Document) bool {
	eng := engine.NewWithMetrics(doc, c.metrics)
	name := doc.Name()
	c.mu.Lock()
	defer c.mu.Unlock()
	old, replaced := c.engines[name]
	c.engines[name] = eng
	if !replaced {
		c.order = append(c.order, name)
	} else {
		c.observeRemoveLocked(old)
	}
	c.observeUpsertLocked(eng)
	c.notifyLocked(Change{Kind: ChangeUpsert, Name: name})
	return replaced
}

// Remove drops the named document from the collection, reporting
// whether it was present.
func (c *Collection) Remove(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.engines[name]
	if !ok {
		return false
	}
	c.observeRemoveLocked(old)
	delete(c.engines, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.notifyLocked(Change{Kind: ChangeRemove, Name: name})
	return true
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.engines)
}

// Names returns the document names in insertion order.
func (c *Collection) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// Engine returns the per-document engine, or nil if absent.
func (c *Collection) Engine(name string) *engine.Engine {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.engines[name]
}

// Hit is one answer fragment of a collection-wide search.
type Hit struct {
	// Document is the name of the document the fragment belongs to.
	Document string
	Fragment core.Fragment
	// Score is the ranking score (comparable across documents: IDF is
	// per-document, so scores are a heuristic merge, as in federated
	// retrieval).
	Score float64
}

// Result is a merged collection search result.
type Result struct {
	// Hits in serving order (see BetterHit), cut to the k best when
	// the search asked for k.
	Hits []Hit
	// Total counts every answer of every document evaluated without
	// error, before the cut to k.
	Total int
	// PerDocument maps document name → its evaluation statistics.
	PerDocument map[string]query.Stats
	// Errors maps document name → evaluation error (e.g. budget
	// exceeded on one pathological document); other documents still
	// contribute hits.
	Errors map[string]error
	// Traces maps document name → its evaluation's span tree; non-nil
	// entries only when Options.Trace was set.
	Traces map[string]*obs.Span
}

// RunContext evaluates a prebuilt query on every document of the
// collection: RunContextOn with no allow-list. Parse keyword/filter
// strings with query.Parse.
func (c *Collection) RunContext(ctx context.Context, q query.Query, opts query.Options) (*Result, error) {
	return c.RunTopOn(ctx, q, opts, nil, 0)
}

// RunContextOn evaluates a prebuilt query on the documents named in
// allow and returns every hit: RunTopOn with no cut.
func (c *Collection) RunContextOn(ctx context.Context, q query.Query, opts query.Options, allow []string) (*Result, error) {
	return c.RunTopOn(ctx, q, opts, allow, 0)
}

// RunTopOn evaluates a prebuilt query on the documents named in allow
// — the posting-first path: the store's global term index proves most
// documents answerless and passes the survivors here — and keeps the k
// best hits in BetterHit order (k <= 0 keeps every hit). Each document
// ranks only its k best answers and the collection keeps only the k
// best of those, so no more than k hits per document are ever built;
// Result.Total still counts every answer.
//
// A nil allow means no restriction (gindex.Candidates returns nil
// names exactly when it could not restrict anything); a non-nil allow,
// even an empty one, evaluates only the distinct documents it names.
// Unknown names are skipped (a candidate may race a concurrent
// Remove). The hit order does not depend on the order of allow, since
// BetterHit is a total order.
//
// Evaluation runs on a bounded worker pool (see SetSearchWorkers)
// instead of one goroutine per document. When ctx is cancelled or its
// deadline passes, documents not yet started are skipped, evaluations
// in flight stop cooperatively inside their join loops
// (engine.RunContext), and both are reported in Result.Errors;
// documents already evaluated keep their hits, so the caller gets
// partial results rather than a hang.
func (c *Collection) RunTopOn(ctx context.Context, q query.Query, opts query.Options, allow []string, k int) (*Result, error) {
	c.mu.RLock()
	names := allow
	if allow == nil {
		names = c.order
	}
	type target struct {
		name string
		eng  *engine.Engine
	}
	targets := make([]target, 0, len(names))
	for _, n := range names {
		if eng, ok := c.engines[n]; ok {
			targets = append(targets, target{n, eng})
		}
	}
	workers := c.workers
	c.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	terms := normalizedTerms(q)

	type docResult struct {
		stats query.Stats
		hits  []Hit
		total int
		trace *obs.Span
		err   error
	}
	results := make([]docResult, len(targets))
	// parent is non-nil only on sampled requests: each document then
	// gets a child span carrying its queue wait (time between search
	// entry and worker pickup — the pool is bounded, so documents queue
	// behind each other) with the evaluation and ranking spans nested
	// under it.
	parent := obs.SpanFromContext(ctx)
	enqueued := time.Now()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(targets) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = docResult{err: err}
					continue
				}
				name, eng := targets[i].name, targets[i].eng
				docCtx := ctx
				dsp := parent.Start("document", name)
				if dsp != nil {
					dsp.SetAttr("queue_wait", time.Since(enqueued).String())
					docCtx = obs.ContextWithSpan(ctx, dsp)
				}
				ans, err := eng.RunContext(docCtx, q, opts)
				if err != nil {
					dsp.Finish(0)
					results[i] = docResult{err: err}
					continue
				}
				rankStart := time.Now()
				rsp := dsp.Start("rank", "")
				answers := ans.Result.Answers
				scored := ranking.New(eng.Index(), terms, ranking.DefaultWeights()).Top(answers, k)
				hits := make([]Hit, len(scored))
				for j, s := range scored {
					hits[j] = Hit{Document: name, Fragment: s.Fragment, Score: s.Score}
				}
				rsp.Finish(len(hits), answers.Len())
				c.metrics.ObserveStage(obs.StageRank, time.Since(rankStart))
				stats := ans.Result.Stats
				stats.Stages.Add(obs.StageRank, time.Since(rankStart))
				dsp.Finish(len(hits))
				results[i] = docResult{stats: stats, hits: hits, total: answers.Len(), trace: ans.Result.Trace}
			}
		}()
	}
	wg.Wait()

	out := &Result{PerDocument: make(map[string]query.Stats, len(targets))}
	n := 0
	for _, r := range results {
		n += len(r.hits)
	}
	sel := ranking.NewTopK(k, n, BetterHit)
	for i, r := range results {
		name := targets[i].name
		if r.err != nil {
			if out.Errors == nil {
				out.Errors = make(map[string]error)
			}
			out.Errors[name] = r.err
			continue
		}
		out.PerDocument[name] = r.stats
		out.Total += r.total
		for _, h := range r.hits {
			sel.Offer(h)
		}
		if r.trace != nil {
			if out.Traces == nil {
				out.Traces = make(map[string]*obs.Span)
			}
			out.Traces[name] = r.trace
		}
	}
	out.Hits = sel.Sorted()
	return out, nil
}

// BetterHit is the serving order of hits: descending score, ties by
// ascending document name, then by the fragment's canonical order. It
// is a strict total order over the distinct hits of a search, so the
// merged list — and every limit/offset page cut from it, whether by a
// document's, a shard's or the store's top-k cut — is the same
// whatever order the hits arrived in.
func BetterHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Document != b.Document {
		return a.Document < b.Document
	}
	return core.LessFragments(a.Fragment, b.Fragment)
}

// RankTerms flattens the query's groups into the plain terms the
// ranker scores on — the exact term list RunTopOn uses, exported so an
// external view maintainer (internal/standing) can reproduce the
// collection's ranking byte for byte.
func RankTerms(q query.Query) []string { return normalizedTerms(q) }

// Snippet renders a fragment's preview text: node texts in document
// order, joined with an ellipsis separator, truncated UTF-8-safely.
// The HTTP search surface and the standing-query watch surface both
// present fragments through this one implementation, so a hit looks
// identical whether it arrived via a search or a subscription delta.
func Snippet(f core.Fragment) string {
	doc := f.Document()
	snippet := ""
	for _, id := range f.IDs() {
		if t := doc.Text(id); t != "" && len(snippet) < 160 {
			if snippet != "" {
				snippet += " … "
			}
			snippet += t
		}
	}
	if len(snippet) > 200 {
		snippet = textutil.TruncateUTF8(snippet, 197) + "..."
	}
	return snippet
}

// normalizedTerms flattens the query's groups into the plain terms
// the ranker scores on: disjunction alternatives count individually
// and phrases contribute their words.
func normalizedTerms(q query.Query) []string {
	groups := q.Groups
	if groups == nil {
		for _, t := range q.Terms {
			groups = append(groups, []string{t})
		}
	}
	var raw []string
	for _, alts := range groups {
		for _, alt := range alts {
			if query.IsPhrase(alt) {
				raw = append(raw, query.PhraseWords(alt)...)
				continue
			}
			raw = append(raw, alt)
		}
	}
	return textutil.NormalizeTerms(raw)
}

// Stats summarizes the collection.
type Stats struct {
	Documents int
	Nodes     int
	Terms     int
	Postings  int
}

// Stats aggregates document and index sizes across the collection.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{Documents: len(c.engines)}
	for _, eng := range c.engines {
		s.Nodes += eng.Document().Len()
		s.Terms += eng.Index().Size()
		s.Postings += eng.Index().Postings()
	}
	return s
}

// DocFreq returns how many documents contain term at least once.
func (c *Collection) DocFreq(term string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, eng := range c.engines {
		if eng.Index().DocFreq(term) > 0 {
			n++
		}
	}
	return n
}
