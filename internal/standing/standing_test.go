package standing

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func drain(t testing.TB, r *Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// matchDoc builds a small document whose paragraphs contain the test
// query terms ("alpha" and "beta" close together).
func matchDoc(t testing.TB, name, extra string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(name,
		"<doc><sec><par>alpha beta "+extra+"</par><par>filler words only</par></sec></doc>")
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func newTestRegistry(t testing.TB, coll *collection.Collection, opts Options) *Registry {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewMetrics()
	}
	r := NewRegistry(coll, opts)
	coll.SetChangeListener(r.Notify)
	t.Cleanup(r.Close)
	return r
}

func TestSubscriptionLifecycle(t *testing.T) {
	coll := collection.New()
	if err := coll.Add(matchDoc(t, "a.xml", "one")); err != nil {
		t.Fatal(err)
	}
	r := newTestRegistry(t, coll, Options{})

	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Seq() != 0 {
		t.Fatalf("fresh subscription seq = %d, want 0", sub.Seq())
	}
	if sub.Matches() == 0 {
		t.Fatal("registration must materialize the existing matches")
	}

	// Ingest a second matching document: exactly one delta with Added.
	if err := coll.Add(matchDoc(t, "b.xml", "two")); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	events, seq, err := sub.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "delta" || events[0].Doc != "b.xml" {
		t.Fatalf("events after add = %+v", events)
	}
	if len(events[0].Added) == 0 || len(events[0].Removed) != 0 {
		t.Fatalf("add delta = %+v", events[0])
	}

	// A non-matching ingest produces no event at all.
	noise, err := xmltree.ParseString("noise.xml", "<doc><par>unrelated text</par></doc>")
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(noise); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if got := sub.Seq(); got != seq {
		t.Fatalf("seq moved to %d on a non-matching ingest", got)
	}

	// Remove the document: a delta with Removed; resume via since skips
	// the already-consumed event.
	coll.Remove("b.xml")
	drain(t, r)
	events, seq2, err := sub.EventsSince(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || len(events[0].Removed) == 0 || len(events[0].Added) != 0 {
		t.Fatalf("events after remove = %+v", events)
	}
	if seq2 != seq+1 {
		t.Fatalf("seq = %d, want %d", seq2, seq+1)
	}

	// Cancel wakes waiters and poisons the subscription.
	if !r.Cancel(sub.ID()) {
		t.Fatal("cancel reported the subscription missing")
	}
	if r.Cancel(sub.ID()) {
		t.Fatal("second cancel must report false")
	}
	if _, _, err := sub.EventsSince(seq2); err != ErrCanceled {
		t.Fatalf("EventsSince after cancel = %v, want ErrCanceled", err)
	}
}

func TestReplaceEmitsUpdate(t *testing.T) {
	coll := collection.New()
	if err := coll.Add(matchDoc(t, "a.xml", "first version")); err != nil {
		t.Fatal(err)
	}
	r := newTestRegistry(t, coll, Options{})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	before := sub.Snapshot()

	coll.Replace(matchDoc(t, "a.xml", "second version with different text"))
	drain(t, r)
	events, _, err := sub.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "delta" {
		t.Fatalf("events = %+v", events)
	}
	ev := events[0]
	if len(ev.Added)+len(ev.Updated)+len(ev.Removed) == 0 {
		t.Fatalf("replace delta is empty: %+v", ev)
	}
	after := sub.Snapshot()
	if len(after) == 0 {
		t.Fatal("view lost the replaced document")
	}
	same := len(before) == len(after)
	if same {
		for i := range before {
			if before[i].Snippet != after[i].Snippet {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("replace did not change the materialized view")
	}
}

func TestResetOnSetAll(t *testing.T) {
	coll := collection.New()
	if err := coll.Add(matchDoc(t, "a.xml", "one")); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	r := newTestRegistry(t, coll, Options{Metrics: m})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}

	// Wholesale contents swap (the bootstrap / snapshot-adoption path):
	// watchers get one reset event carrying the fresh snapshot.
	if err := coll.SetAll([]*xmltree.Document{
		matchDoc(t, "x.xml", "swapped one"),
		matchDoc(t, "y.xml", "swapped two"),
	}); err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	events, _, err := sub.EventsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "reset" {
		t.Fatalf("events after SetAll = %+v", events)
	}
	if len(events[0].Hits) != sub.Matches() || sub.Matches() == 0 {
		t.Fatalf("reset snapshot = %d hits, view has %d", len(events[0].Hits), sub.Matches())
	}
	for _, h := range events[0].Hits {
		if h.Document != "x.xml" && h.Document != "y.xml" {
			t.Fatalf("reset snapshot kept a pre-swap hit: %+v", h)
		}
	}
	if m.Counter(obs.MStandingResets).Value() == 0 {
		t.Fatal("reset not counted")
	}
}

// gatedCorpus can hold Engine lookups on a gate, so a test can pin the
// delta worker mid-apply and deterministically overflow the queue.
type gatedCorpus struct {
	*collection.Collection
	mu   sync.Mutex
	gate chan struct{} // nil: pass through; else Engine blocks until closed
}

func (g *gatedCorpus) setGate(ch chan struct{}) {
	g.mu.Lock()
	g.gate = ch
	g.mu.Unlock()
}

func (g *gatedCorpus) Engine(name string) *engine.Engine {
	g.mu.Lock()
	ch := g.gate
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return g.Collection.Engine(name)
}

func TestOverflowNeverBlocksAndResyncs(t *testing.T) {
	coll := collection.New()
	if err := coll.Add(matchDoc(t, "a.xml", "one")); err != nil {
		t.Fatal(err)
	}
	g := &gatedCorpus{Collection: coll}
	m := obs.NewMetrics()
	r := NewRegistry(g, Options{QueueDepth: 1, Metrics: m})
	defer r.Close()
	// Register with the gate open: its synchronous evaluation must pass.
	if _, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, ""); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	g.setGate(gate)

	// One change occupies the worker (blocked on the gate), one fills
	// the queue, the rest must overflow without ever blocking this
	// goroutine — the never-block-ingest contract.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			r.Notify(collection.Change{Kind: collection.ChangeUpsert, Name: "a.xml"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Notify blocked ingest")
	}
	// Overflow is counted once the worker is provably stuck; the exact
	// count depends on when it picked up the first change, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter(obs.MStandingDropped).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overflow not counted")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the worker; the scheduled resync repairs the view.
	g.setGate(nil)
	close(gate)
	drain(t, r)
	if m.Counter(obs.MStandingResets).Value() == 0 {
		t.Fatal("overflow must schedule a resync")
	}
}

// TestSoakByteIdentity is the acceptance invariant: after a randomized
// ingest/replace/delete soak, the incrementally maintained view must be
// byte-identical (as JSON) to a from-scratch evaluation of the same
// standing query over the final corpus.
func TestSoakByteIdentity(t *testing.T) {
	coll := collection.New()
	r := newTestRegistry(t, coll, Options{Buffer: 8})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	live := map[string]bool{}
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("doc%02d.xml", rng.Intn(40))
		switch {
		case !live[name] || rng.Intn(3) == 0:
			// Vary the text so replaces actually change scores/snippets;
			// roughly half the documents match the standing query.
			extra := fmt.Sprintf("revision %d %s", i, strings.Repeat("pad ", rng.Intn(4)))
			var xml string
			if rng.Intn(2) == 0 {
				xml = "<doc><sec><par>alpha beta " + extra + "</par></sec></doc>"
			} else {
				xml = "<doc><sec><par>gamma delta " + extra + "</par></sec></doc>"
			}
			doc, perr := xmltree.ParseString(name, xml)
			if perr != nil {
				t.Fatal(perr)
			}
			coll.Replace(doc)
			live[name] = true
		default:
			coll.Remove(name)
			delete(live, name)
		}
	}
	drain(t, r)

	// From-scratch evaluation of the same query over the final corpus:
	// Register compiles and materializes synchronously.
	fresh, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sub.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("maintained view diverged from fresh evaluation:\n got: %s\nwant: %s", got, want)
	}
	if sub.Matches() == 0 {
		t.Fatal("soak ended with an empty view — test lost its teeth")
	}
}

func TestRingOverflowSyntheticReset(t *testing.T) {
	coll := collection.New()
	r := newTestRegistry(t, coll, Options{Buffer: 2})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := coll.Add(matchDoc(t, fmt.Sprintf("d%d.xml", i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, r)
	if sub.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", sub.Seq())
	}
	// since=0 predates the 2-event ring: the consumer must re-sync.
	if _, _, err := sub.EventsSince(0); err != ErrTooOld {
		t.Fatalf("EventsSince(0) = %v, want ErrTooOld", err)
	}
	reset := sub.SyntheticReset()
	if reset.Type != "reset" || reset.Seq != 5 || len(reset.Hits) != sub.Matches() {
		t.Fatalf("synthetic reset = %+v", reset)
	}
	// The retained tail still serves.
	events, _, err := sub.EventsSince(3)
	if err != nil || len(events) != 2 {
		t.Fatalf("tail = %v, %v", events, err)
	}
}

func TestWaitAndNotify(t *testing.T) {
	coll := collection.New()
	r := newTestRegistry(t, coll, Options{})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []Event, 1)
	go func() {
		events, _, werr := sub.Wait(context.Background(), 0)
		if werr != nil {
			t.Errorf("wait: %v", werr)
		}
		got <- events
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	if err := coll.Add(matchDoc(t, "late.xml", "x")); err != nil {
		t.Fatal(err)
	}
	select {
	case events := <-got:
		if len(events) != 1 || events[0].Doc != "late.xml" {
			t.Fatalf("woken with %+v", events)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never woke")
	}

	// An expired context returns its error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, _, err := sub.Wait(ctx, sub.Seq()); err != context.DeadlineExceeded {
		t.Fatalf("expired wait = %v", err)
	}
}

func TestRegisterLimitAndLookup(t *testing.T) {
	coll := collection.New()
	r := newTestRegistry(t, coll, Options{MaxSubscriptions: 1})
	sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("other terms", "", query.Options{Auto: true}, ""); err != ErrTooManySubscriptions {
		t.Fatalf("over-limit register = %v", err)
	}

	// Lookup matches on compiled identity, not spelling.
	q, err := query.Parse("alpha beta", "size<=3")
	if err != nil {
		t.Fatal(err)
	}
	found, ok := r.Lookup(q, query.Options{Auto: true})
	if !ok || found.ID() != sub.ID() {
		t.Fatalf("lookup = %v, %v", found, ok)
	}
	q2, err := query.Parse("alpha beta", "size<=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(q2, query.Options{Auto: true}); ok {
		t.Fatal("lookup matched a different filter")
	}
	r.Cancel(sub.ID())
	if _, ok := r.Lookup(q, query.Options{Auto: true}); ok {
		t.Fatal("lookup matched a canceled subscription")
	}
}

// standingCorpus is the 300-document collection the standing-query
// benchmark and its allocation pins run on.
func standingCorpus(tb testing.TB) (*collection.Collection, []*xmltree.Document) {
	coll := collection.New()
	docs := make([]*xmltree.Document, 300)
	for i := range docs {
		name := fmt.Sprintf("doc%03d.xml", i)
		xml := fmt.Sprintf("<doc><sec><par>alpha beta corpus %d</par><par>more filler text here</par></sec></doc>", i)
		doc, err := xmltree.ParseString(name, xml)
		if err != nil {
			tb.Fatal(err)
		}
		docs[i] = doc
		if err := coll.Add(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return coll, docs
}

// standingDeltaOp maintains a standing query's view through one
// document change: replace the next document and wait until the delta
// worker has applied it.
func standingDeltaOp(tb testing.TB, coll *collection.Collection, docs []*xmltree.Document) func() {
	r := newTestRegistry(tb, coll, Options{})
	tb.Cleanup(func() { coll.SetChangeListener(nil) })
	if _, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, ""); err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		coll.Replace(docs[i%len(docs)])
		i++
		if err := r.Drain(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
}

// standingFullOp re-evaluates the query over the whole corpus, which
// is what registering it costs.
func standingFullOp(tb testing.TB, coll *collection.Collection) func() {
	r := NewRegistry(coll, Options{Metrics: obs.NewMetrics()})
	tb.Cleanup(r.Close)
	return func() {
		sub, err := r.Register("alpha beta", "size<=3", query.Options{Auto: true}, "")
		if err != nil {
			tb.Fatal(err)
		}
		r.Cancel(sub.ID())
	}
}

// BenchmarkStandingDelta is the acceptance benchmark: maintaining a
// standing query's view through one document change (delta) versus
// re-evaluating the query over the whole 300-document corpus (full).
// The delta path must be ≥5× faster.
func BenchmarkStandingDelta(b *testing.B) {
	coll, docs := standingCorpus(b)
	for _, bc := range []struct {
		name  string
		build func(testing.TB) func()
	}{
		{"delta", func(tb testing.TB) func() { return standingDeltaOp(tb, coll, docs) }},
		{"full", func(tb testing.TB) func() { return standingFullOp(tb, coll) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op := bc.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestStandingDeltaAllocs pins both benchmark rows at their counts:
// one more allocation per maintained change, or per full
// re-evaluation, fails.
func TestStandingDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts differ under -race")
	}
	runtime.GC() // the first collection allocates its mark workers
	coll, docs := standingCorpus(t)
	if got := testing.AllocsPerRun(100, standingDeltaOp(t, coll, docs)); got != 42 {
		t.Errorf("a delta allocates %.0f times, pinned at 42", got)
	}
	if got := testing.AllocsPerRun(10, standingFullOp(t, coll)); got != 4544 {
		t.Errorf("a full re-evaluation allocates %.0f times, pinned at 4544", got)
	}
}
