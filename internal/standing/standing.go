// Package standing maintains materialized answer sets for registered
// ("standing") queries over a live corpus, fed by the same change feed
// the WAL apply path drives.
//
// The paper's algebra makes this exact and cheap: an answer is a set
// of fragments, every fragment is a connected subtree of one document
// (Definition 2), and documents are evaluated independently. A
// document change therefore affects exactly the fragments rooted in
// that document — re-running the algebra on the affected document and
// splicing the result into the materialized view is a *precise* delta,
// not an approximation. Per-change work is O(affected document),
// independent of corpus size.
//
// The registry consumes collection.Change notifications (document
// upserted / removed / wholesale reset). Changes carry only the
// document name; the worker looks up the *current* engine at apply
// time, so a burst of changes to one document converges on the final
// state even if intermediate notifications were dropped. The change
// queue is bounded and never blocks ingest: on overflow the registry
// drops the notification, counts it, and schedules a full re-snapshot
// (reset) instead — correctness degrades to a coarser event, never to
// a wrong view.
//
// Each subscription carries a monotonically increasing sequence
// number. Delta events (per-document add/update/remove sets) and reset
// events (full snapshot after a bootstrap swap or overflow recovery)
// share one numbered stream, retained in a bounded ring for resumable
// consumption (?since=seq). A consumer that falls off the ring gets a
// synthetic reset carrying the current snapshot.
package standing

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/ranking"
)

// Corpus is the slice of a document store the registry needs: name
// enumeration and per-document engine lookup. Both
// *collection.Collection and *store.Store satisfy it, so standing
// queries work identically over an in-memory collection, a durable
// sharded store, and a replica fed by the replication stream.
type Corpus interface {
	Names() []string
	Engine(name string) *engine.Engine
}

// Errors returned by registry and subscription operations.
var (
	// ErrTooManySubscriptions rejects Register past the configured cap.
	ErrTooManySubscriptions = errors.New("standing: subscription limit reached")
	// ErrClosed rejects operations on a closed registry.
	ErrClosed = errors.New("standing: registry closed")
	// ErrCanceled reports the subscription was canceled while waiting.
	ErrCanceled = errors.New("standing: subscription canceled")
	// ErrTooOld reports that the requested resume point has fallen off
	// the event ring; the caller must re-sync from a snapshot (the
	// HTTP layer turns this into a synthetic reset event).
	ErrTooOld = errors.New("standing: resume point no longer retained")
)

// Hit is one materialized answer fragment, in the same JSON shape the
// search API serves, so a view snapshot and a search response are
// byte-comparable.
type Hit struct {
	Document string  `json:"document"`
	Nodes    []int32 `json:"nodes"`
	Root     int32   `json:"root"`
	Size     int     `json:"size"`
	Score    float64 `json:"score"`
	Snippet  string  `json:"snippet,omitempty"`
}

// key identifies a fragment within its document for diffing.
func (h Hit) key() string {
	b := make([]byte, 0, 8*len(h.Nodes)+8)
	b = strconv.AppendInt(b, int64(h.Root), 10)
	for _, n := range h.Nodes {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// Ref names a fragment that left the answer set.
type Ref struct {
	Document string  `json:"document"`
	Root     int32   `json:"root"`
	Nodes    []int32 `json:"nodes"`
}

// Event is one numbered entry of a subscription's stream.
type Event struct {
	// Seq is the per-subscription sequence number, strictly
	// increasing, starting at 1 (a fresh subscription's snapshot is
	// seq 0).
	Seq uint64 `json:"seq"`
	// Type is "delta" (per-document change) or "reset" (full
	// re-snapshot; apply Hits wholesale and discard prior state).
	Type string `json:"type"`
	// Doc is the changed document (delta events only).
	Doc string `json:"doc,omitempty"`
	// Added / Updated carry fragments entering the answer set or
	// changing score/snippet, in rank order. Removed names fragments
	// leaving it.
	Added   []Hit `json:"added,omitempty"`
	Updated []Hit `json:"updated,omitempty"`
	Removed []Ref `json:"removed,omitempty"`
	// Hits is the full materialized snapshot (reset events only).
	Hits []Hit `json:"hits,omitempty"`
}

// Options tunes a registry. The zero value is usable.
type Options struct {
	// MaxSubscriptions caps concurrently registered standing queries
	// (default 64).
	MaxSubscriptions int
	// Buffer is the per-subscription event-ring capacity: how many
	// events a disconnected consumer may miss and still resume via
	// ?since without a re-sync (default 256).
	Buffer int
	// QueueDepth bounds the pending change queue between the ingest
	// path and the delta worker (default 1024). Overflow never blocks
	// ingest; it schedules a full re-snapshot instead.
	QueueDepth int
	// Metrics receives the standing_* series; nil disables.
	Metrics *obs.Metrics
}

func (o *Options) setDefaults() {
	if o.MaxSubscriptions <= 0 {
		o.MaxSubscriptions = 64
	}
	if o.Buffer <= 0 {
		o.Buffer = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
}

// change is one queue entry: a document name to re-evaluate, or a
// drain sentinel (ack non-nil) for tests and shutdown barriers.
type change struct {
	name string
	ack  chan struct{}
}

// Registry holds the registered standing queries and runs the single
// delta worker that keeps their materialized views current.
type Registry struct {
	corpus  Corpus
	opts    Options
	metrics *obs.Metrics

	mu     sync.RWMutex
	subs   map[string]*Subscription
	closed bool
	nextID atomic.Uint64

	changes chan change
	// resync, when set, tells the worker to rebuild every view from
	// scratch: queued after a wholesale corpus swap (bootstrap) or
	// after the change queue overflowed. kick (capacity 1) wakes the
	// worker when resync is the only pending work.
	resync atomic.Bool
	kick   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewRegistry builds a registry over corpus and starts its delta
// worker. Wire the corpus's change feed to Notify (see
// collection.SetChangeListener / store.SetChangeListener); until then
// the registry sees no changes. Close releases the worker.
func NewRegistry(corpus Corpus, opts Options) *Registry {
	opts.setDefaults()
	r := &Registry{
		corpus:  corpus,
		opts:    opts,
		metrics: opts.Metrics,
		subs:    make(map[string]*Subscription),
		changes: make(chan change, opts.QueueDepth),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.worker()
	return r
}

// Close stops the delta worker and cancels every subscription. Safe to
// call twice.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	subs := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	r.subs = make(map[string]*Subscription)
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	for _, s := range subs {
		s.cancel()
	}
	r.metrics.Gauge(obs.MStandingSubscriptions).Set(0)
}

// Notify feeds one corpus change into the registry. It never blocks:
// per-document changes go to the bounded queue, and on overflow (or a
// wholesale reset) the registry schedules a full re-snapshot instead.
// Safe to call from under collection shard locks.
func (r *Registry) Notify(ch collection.Change) {
	switch ch.Kind {
	case collection.ChangeReset:
		r.scheduleResync()
	default:
		select {
		case r.changes <- change{name: ch.Name}:
		default:
			r.metrics.Counter(obs.MStandingDropped).Add(1)
			r.scheduleResync()
		}
	}
}

func (r *Registry) scheduleResync() {
	r.resync.Store(true)
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Register compiles a standing query, materializes its current answer
// set synchronously, and returns the live subscription. label echoes
// the caller's strategy spelling in listings; empty derives one from
// opts.
func (r *Registry) Register(keywords, filterSpec string, opts query.Options, label string) (*Subscription, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	if label == "" {
		if opts.Auto {
			label = "auto"
		} else {
			label = opts.Strategy.String()
		}
	}
	sub := &Subscription{
		id:       fmt.Sprintf("w-%d", r.nextID.Add(1)),
		q:        q,
		opts:     opts,
		keywords: keywords,
		filter:   filterSpec,
		strategy: label,
		viewKey:  viewKey(q, opts),
		buffer:   r.opts.Buffer,
		notify:   make(chan struct{}),
		created:  time.Now(),
	}
	sub.view = r.evaluateAll(sub)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if len(r.subs) >= r.opts.MaxSubscriptions {
		r.mu.Unlock()
		return nil, ErrTooManySubscriptions
	}
	r.subs[sub.id] = sub
	n := len(r.subs)
	r.mu.Unlock()
	r.metrics.Gauge(obs.MStandingSubscriptions).Set(int64(n))
	return sub, nil
}

// Cancel removes the subscription and wakes its waiters with
// ErrCanceled, reporting whether the ID was live.
func (r *Registry) Cancel(id string) bool {
	r.mu.Lock()
	sub, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
	}
	n := len(r.subs)
	r.mu.Unlock()
	if !ok {
		return false
	}
	sub.cancel()
	r.metrics.Gauge(obs.MStandingSubscriptions).Set(int64(n))
	return true
}

// Get returns the live subscription with the given ID.
func (r *Registry) Get(id string) (*Subscription, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.subs[id]
	return s, ok
}

// List returns the live subscriptions sorted by ID.
func (r *Registry) List() []*Subscription {
	r.mu.RLock()
	out := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Lookup finds a live subscription whose compiled (query, options)
// identity matches — the search fast path: a search for a standing
// query is served from the materialized view instead of re-evaluating
// the corpus. Identity is the viewKey fingerprint.
func (r *Registry) Lookup(q query.Query, opts query.Options) (*Subscription, bool) {
	key := viewKey(q, opts)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best *Subscription
	for _, s := range r.subs {
		if s.viewKey == key && (best == nil || s.id < best.id) {
			best = s
		}
	}
	return best, best != nil
}

// viewKey fingerprints a (query, options) pair as the identity of a
// materialized view. Only fields that can change the answer set
// participate: chooser settings change the work, not the result — but
// the strategy choice can change which error is returned, so it is
// included.
func viewKey(q query.Query, opts query.Options) string {
	qs := q.String()
	b := make([]byte, 0, len(qs)+24)
	b = append(b, qs...)
	b = append(b, "|s="...)
	b = strconv.AppendInt(b, int64(opts.Strategy), 10)
	b = append(b, "|a="...)
	b = strconv.AppendBool(b, opts.Auto)
	b = append(b, "|mf="...)
	b = strconv.AppendInt(b, int64(opts.MaxFragments), 10)
	return string(b)
}

// Drain blocks until every change enqueued before the call has been
// applied (including any scheduled re-snapshot), or ctx expires. Test
// and shutdown barrier; serving paths never need it.
func (r *Registry) Drain(ctx context.Context) error {
	ack := make(chan struct{})
	select {
	case r.changes <- change{ack: ack}:
	case <-r.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is the single delta-application loop: it serializes view
// maintenance so per-subscription sequence numbers are totally ordered
// without per-event locking gymnastics.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.kick:
			if r.resync.Swap(false) {
				r.resyncAll()
			}
		case ch := <-r.changes:
			// A scheduled resync subsumes any queued per-document
			// change; apply it first so deltas land on fresh views.
			if r.resync.Swap(false) {
				r.resyncAll()
			}
			if ch.ack != nil {
				close(ch.ack)
				continue
			}
			r.applyChange(ch.name)
		}
	}
}

// snapshotList returns the live subscriptions (unsorted).
func (r *Registry) snapshotList() []*Subscription {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, s)
	}
	return out
}

// evaluate runs one subscription's algebra on one engine and returns
// the ranked hits, exactly as a collection search would produce them
// (same evaluation entry point, same ranker, same term
// normalization) — the byte-identity invariant rests here. A nil
// engine (document absent) and an evaluation error both yield no hits;
// errors are counted.
func (r *Registry) evaluate(sub *Subscription, name string, eng *engine.Engine) []Hit {
	if eng == nil {
		return nil
	}
	ans, err := eng.RunContext(context.Background(), sub.q, sub.opts)
	if err != nil {
		r.metrics.Counter(obs.MStandingErrors).Add(1)
		return nil
	}
	rk := ranking.New(eng.Index(), collection.RankTerms(sub.q), ranking.DefaultWeights())
	scored := rk.Rank(ans.Result.Answers)
	if len(scored) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(scored))
	for _, s := range scored {
		ids := s.Fragment.IDs()
		nodes := make([]int32, len(ids))
		for i, id := range ids {
			nodes[i] = int32(id)
		}
		hits = append(hits, Hit{
			Document: name,
			Nodes:    nodes,
			Root:     int32(s.Fragment.Root()),
			Size:     s.Fragment.Size(),
			Score:    s.Score,
			Snippet:  collection.Snippet(s.Fragment),
		})
	}
	return hits
}

// evaluateAll materializes a subscription's full view from the current
// corpus.
func (r *Registry) evaluateAll(sub *Subscription) map[string][]Hit {
	view := make(map[string][]Hit)
	for _, name := range r.corpus.Names() {
		if hits := r.evaluate(sub, name, r.corpus.Engine(name)); hits != nil {
			view[name] = hits
		}
	}
	return view
}

// applyChange re-evaluates one document against every subscription and
// emits the per-document diff. The engine lookup happens here, at
// apply time: coalesced or dropped intermediate changes to the same
// name converge on the same final view.
func (r *Registry) applyChange(name string) {
	subs := r.snapshotList()
	if len(subs) == 0 {
		return
	}
	start := time.Now()
	eng := r.corpus.Engine(name)
	for _, sub := range subs {
		newHits := r.evaluate(sub, name, eng)
		sub.applyDoc(name, newHits, r.metrics)
		r.metrics.Counter(obs.MStandingDeltas).Add(1)
	}
	r.metrics.Histogram(obs.MStandingDeltaSeconds, obs.LatencyBuckets).Observe(time.Since(start).Seconds())
}

// resyncAll rebuilds every subscription's view from the live corpus
// and emits a reset event carrying the fresh snapshot — the recovery
// path after a wholesale contents swap or change-queue overflow.
func (r *Registry) resyncAll() {
	for _, sub := range r.snapshotList() {
		view := r.evaluateAll(sub)
		sub.reset(view)
		r.metrics.Counter(obs.MStandingResets).Add(1)
	}
}

// Subscription is one registered standing query: its compiled form,
// the materialized per-document view, and the numbered event ring.
type Subscription struct {
	id       string
	q        query.Query
	opts     query.Options
	keywords string
	filter   string
	strategy string
	viewKey  string
	buffer   int
	created  time.Time

	mu       sync.Mutex
	seq      uint64
	view     map[string][]Hit
	events   []Event // ring: at most buffer entries, oldest first
	notify   chan struct{}
	canceled bool
}

// ID returns the subscription's identifier.
func (s *Subscription) ID() string { return s.id }

// Query returns the compiled query's canonical rendering.
func (s *Subscription) Query() string { return s.q.String() }

// Keywords returns the registered keyword string as given.
func (s *Subscription) Keywords() string { return s.keywords }

// Filter returns the registered filter specification as given.
func (s *Subscription) Filter() string { return s.filter }

// Strategy returns the strategy label the subscription echoes.
func (s *Subscription) Strategy() string { return s.strategy }

// Created returns the registration time.
func (s *Subscription) Created() time.Time { return s.created }

// Seq returns the current sequence number: the Seq of the latest
// event, or 0 when none has been emitted.
func (s *Subscription) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Matches returns the materialized answer-set size.
func (s *Subscription) Matches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, hits := range s.view {
		n += len(hits)
	}
	return n
}

// Snapshot returns the materialized answer set in serving order:
// descending score, ties by ascending document name, rank order within
// a document — the order a from-scratch search would produce.
func (s *Subscription) Snapshot() []Hit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Subscription) snapshotLocked() []Hit {
	names := make([]string, 0, len(s.view))
	for name := range s.view {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Hit
	for _, name := range names {
		out = append(out, s.view[name]...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Document < out[j].Document
	})
	return out
}

// EventsSince returns retained events with Seq > since, plus the
// current sequence number. ErrTooOld means events past since have
// already left the ring (or since is from a previous incarnation):
// the caller must re-sync, e.g. by requesting SyntheticReset.
func (s *Subscription) EventsSince(since uint64) ([]Event, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return nil, s.seq, ErrCanceled
	}
	if since > s.seq {
		return nil, s.seq, ErrTooOld
	}
	if len(s.events) > 0 && since+1 < s.events[0].Seq {
		return nil, s.seq, ErrTooOld
	}
	var out []Event
	for _, ev := range s.events {
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out, s.seq, nil
}

// SyntheticReset builds an unretained reset event at the current
// sequence number carrying the full snapshot — what a consumer that
// fell off the ring applies to re-sync.
func (s *Subscription) SyntheticReset() Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Event{Seq: s.seq, Type: "reset", Hits: s.snapshotLocked()}
}

// Wait blocks until an event with Seq > since exists, the subscription
// is canceled, or ctx expires, then returns as EventsSince. A
// satisfiable since returns immediately.
func (s *Subscription) Wait(ctx context.Context, since uint64) ([]Event, uint64, error) {
	for {
		s.mu.Lock()
		ch := s.notify
		canceled := s.canceled
		seq := s.seq
		s.mu.Unlock()
		if canceled {
			return nil, seq, ErrCanceled
		}
		if seq > since {
			return s.EventsSince(since)
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, seq, ctx.Err()
		}
	}
}

// NotifyCh returns a channel closed at the next event append or
// cancellation — the SSE writer's wakeup.
func (s *Subscription) NotifyCh() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}

// Canceled reports whether the subscription has been canceled.
func (s *Subscription) Canceled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canceled
}

func (s *Subscription) cancel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return
	}
	s.canceled = true
	close(s.notify)
	s.notify = make(chan struct{})
}

// applyDoc splices one document's fresh hits into the view and emits
// the diff event (nothing when the answer set is unchanged — the
// common case of an ingest that does not touch this query).
func (s *Subscription) applyDoc(name string, newHits []Hit, m *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.view[name]
	ev := diff(name, old, newHits)
	if ev == nil {
		return
	}
	if len(newHits) == 0 {
		delete(s.view, name)
	} else {
		s.view[name] = newHits
	}
	s.appendLocked(*ev)
	m.Counter(obs.MStandingEvents).Add(1)
}

// reset replaces the whole view and emits a reset event with the new
// snapshot.
func (s *Subscription) reset(view map[string][]Hit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.view = view
	s.appendLocked(Event{Type: "reset", Hits: s.snapshotLocked()})
}

// appendLocked numbers the event, appends it to the bounded ring
// (dropping the oldest on overflow), and wakes waiters.
func (s *Subscription) appendLocked(ev Event) {
	s.seq++
	ev.Seq = s.seq
	if len(s.events) >= s.buffer {
		n := copy(s.events, s.events[1:])
		s.events = s.events[:n]
	}
	s.events = append(s.events, ev)
	close(s.notify)
	s.notify = make(chan struct{})
}

// diff computes the per-document delta event, or nil when nothing
// changed. Added and Updated keep rank order; Removed keeps the old
// view's order.
func diff(name string, old, new []Hit) *Event {
	oldByKey := make(map[string]Hit, len(old))
	for _, h := range old {
		oldByKey[h.key()] = h
	}
	ev := &Event{Type: "delta", Doc: name}
	seen := make(map[string]struct{}, len(new))
	for _, h := range new {
		k := h.key()
		seen[k] = struct{}{}
		prev, ok := oldByKey[k]
		switch {
		case !ok:
			ev.Added = append(ev.Added, h)
		case prev.Score != h.Score || prev.Snippet != h.Snippet:
			ev.Updated = append(ev.Updated, h)
		}
	}
	for _, h := range old {
		if _, ok := seen[h.key()]; !ok {
			ev.Removed = append(ev.Removed, Ref{Document: h.Document, Root: h.Root, Nodes: h.Nodes})
		}
	}
	if len(ev.Added) == 0 && len(ev.Updated) == 0 && len(ev.Removed) == 0 {
		return nil
	}
	return ev
}
