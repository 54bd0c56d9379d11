package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/obs"
	"repro/internal/query"
)

// testDoc builds a tiny document-centric XML body whose searchable
// terms rotate with i so different documents match differently.
func testDoc(i int) (name, xml string) {
	name = fmt.Sprintf("doc-%04d", i)
	term := "alpha"
	if i%3 == 0 {
		term = "gamma"
	}
	xml = fmt.Sprintf(
		"<article><title>%s retrieval</title><sec>xml %s fragment %d</sec><sec>filler text %d</sec></article>",
		term, term, i, i)
	return name, xml
}

// search parses a keyword/filter query and runs it across every shard
// of st; k caps the merged hit list as in Run.
func search(ctx context.Context, st *Store, keywords, filterSpec string, opts query.Options, k int) (*Result, error) {
	q, err := query.Parse(keywords, filterSpec)
	if err != nil {
		return nil, err
	}
	return st.Run(ctx, q, opts, k)
}

// waitJob polls until the job leaves the queued/indexing states.
func waitJob(t *testing.T, s *Store, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.Status == JobDone || j.Status == JobFailed {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

// hitKeys projects hits onto comparable (document, root, size)
// triples for order-insensitive equality.
func hitKeys(hits []collection.Hit) []string {
	keys := make([]string, len(hits))
	for i, h := range hits {
		keys[i] = fmt.Sprintf("%s/%d/%d", h.Document, h.Fragment.Root(), h.Fragment.Size())
	}
	sort.Strings(keys)
	return keys
}

// TestShardedMatchesUnsharded is the acceptance check: an 8-shard,
// 1000-document store returns exactly the hit set of the unsharded
// collection, order-insensitively.
func TestShardedMatchesUnsharded(t *testing.T) {
	const docs = 1000
	st, err := Open(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	coll := collection.New()
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
		if err := coll.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != docs {
		t.Fatalf("store has %d docs, want %d", st.Len(), docs)
	}
	// Every shard should hold something under FNV with 1000 names.
	for i := 0; i < st.Shards(); i++ {
		if st.shards[i].Len() == 0 {
			t.Errorf("shard %d is empty", i)
		}
	}
	for _, q := range []string{"alpha", "gamma", "xml fragment", "alpha|gamma retrieval"} {
		sr, err := search(context.Background(), st, q, "size<=3", query.Options{Auto: true}, 0)
		if err != nil {
			t.Fatalf("store search %q: %v", q, err)
		}
		pq, err := query.Parse(q, "size<=3")
		if err != nil {
			t.Fatal(err)
		}
		cr, err := coll.RunContext(context.Background(), pq, query.Options{Auto: true})
		if err != nil {
			t.Fatalf("collection search %q: %v", q, err)
		}
		if len(sr.Errors) != 0 {
			t.Fatalf("store search %q errors: %v", q, sr.Errors)
		}
		got, want := hitKeys(sr.Hits), hitKeys(cr.Hits)
		if len(got) != len(want) {
			t.Fatalf("search %q: store %d hits, collection %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("search %q: hit sets differ at %d: %s vs %s", q, i, got[i], want[i])
			}
		}
		if sr.Total != len(cr.Hits) {
			t.Fatalf("search %q: total %d, want %d", q, sr.Total, len(cr.Hits))
		}
	}
}

// TestDeadlinePartialResults: an already-expired context must return
// promptly with per-document errors, not hang or fail wholesale.
func TestDeadlinePartialResults(t *testing.T) {
	st, err := Open(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	const docs = 40
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := search(ctx, st, "alpha", "", query.Options{Auto: true}, 0)
	if err != nil {
		t.Fatalf("expired-deadline search should degrade, got error %v", err)
	}
	if len(res.Errors) != docs {
		t.Fatalf("want %d per-document deadline errors, got %d", docs, len(res.Errors))
	}
	for name, e := range res.Errors {
		if !errors.Is(e, context.DeadlineExceeded) {
			t.Fatalf("doc %s: error %v, want DeadlineExceeded", name, e)
		}
	}
	if got := st.Metrics().Counter(obs.MSearchDeadline).Value(); got == 0 {
		t.Fatal("search_deadline_exceeded_total not incremented")
	}
}

// TestAsyncIngestAndRestartDurability is the acceptance check for
// durability: documents added through the async pipeline survive a
// close/reopen with identical names and search results, across a WAL
// replay and one compaction cycle.
func TestAsyncIngestAndRestartDurability(t *testing.T) {
	dir := t.TempDir()
	const phase1, phase2 = 12, 9
	open := func() *Store {
		st, err := Open(Options{Dir: dir, Shards: 4, IngestWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	for i := 0; i < phase1; i++ {
		name, xml := testDoc(i)
		id, err := st.Enqueue(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		if j := waitJob(t, st, id); j.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
	}
	// One explicit compaction cycle: snapshot absorbs phase 1, WAL
	// truncates, then phase 2 lands in the fresh log.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i, ws := range st.wals {
		if ws.w.size != 0 {
			t.Fatalf("post-compaction WAL %d size %d, want 0", i, ws.w.size)
		}
	}
	for i := phase1; i < phase1+phase2; i++ {
		name, xml := testDoc(i)
		id, err := st.Enqueue(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		if j := waitJob(t, st, id); j.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
	}
	// A removal must also survive the restart.
	removedName, _ := testDoc(phase1)
	if !st.Remove(removedName) {
		t.Fatalf("remove %s failed", removedName)
	}
	wantNames := st.Names()
	wantRes, err := search(context.Background(), st, "alpha|gamma", "", query.Options{Auto: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	st2 := open()
	defer st2.Close(context.Background())
	if replayed := st2.Metrics().Counter(obs.MWALReplayed).Value(); replayed == 0 {
		t.Fatal("reopen replayed no WAL records; expected phase-2 adds in the log")
	}
	gotNames := st2.Names()
	if len(gotNames) != phase1+phase2-1 {
		t.Fatalf("reopened store has %d docs, want %d", len(gotNames), phase1+phase2-1)
	}
	for i, n := range wantNames {
		if gotNames[i] != n {
			t.Fatalf("names diverge at %d: %s vs %s", i, gotNames[i], n)
		}
	}
	gotRes, err := search(context.Background(), st2, "alpha|gamma", "", query.Options{Auto: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := hitKeys(gotRes.Hits), hitKeys(wantRes.Hits)
	if len(got) != len(want) {
		t.Fatalf("reopened search: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reopened search differs at %d: %s vs %s", i, got[i], want[i])
		}
	}
}

// TestQueueBackpressure drives the bounded queue to capacity
// deterministically by wedging the single worker behind the
// compaction lock.
func TestQueueBackpressure(t *testing.T) {
	st, err := Open(Options{Shards: 2, IngestWorkers: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())

	st.ingestMu.Lock() // wedge the worker inside addParsed
	name1, xml1 := testDoc(1)
	id1, err := st.Enqueue(name1, xml1)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pop job 1 (queue drains to 0) so the
	// single queue slot is free and deterministically fillable.
	for st.QueueDepth() != 0 {
		time.Sleep(time.Millisecond)
	}
	name2, xml2 := testDoc(2)
	id2, err := st.Enqueue(name2, xml2)
	if err != nil {
		t.Fatal(err)
	}
	name3, xml3 := testDoc(3)
	if _, err := st.Enqueue(name3, xml3); !errors.Is(err, ErrQueueFull) {
		st.ingestMu.Unlock()
		t.Fatalf("third enqueue: err %v, want ErrQueueFull", err)
	}
	if got := st.Metrics().Counter(obs.MIngestRejected).Value(); got != 1 {
		st.ingestMu.Unlock()
		t.Fatalf("ingest_rejected_total %d, want 1", got)
	}
	st.ingestMu.Unlock()
	for _, id := range []string{id1, id2} {
		if j := waitJob(t, st, id); j.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
	}
}

// TestEnqueueValidation covers bad input and post-close behavior.
func TestEnqueueValidation(t *testing.T) {
	st, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Enqueue("", "<a/>"); err == nil {
		t.Fatal("empty name accepted")
	}
	id, err := st.Enqueue("bad", "<unclosed>")
	if err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, st, id); j.Status != JobFailed || j.Error == "" {
		t.Fatalf("malformed XML job: %+v", j)
	}
	if _, ok := st.Job("job-999"); ok {
		t.Fatal("unknown job id resolved")
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Enqueue("x", "<a/>"); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	if err := st.AddXML("x", "<a/>"); !errors.Is(err, ErrClosed) {
		t.Fatalf("add after close: %v, want ErrClosed", err)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal("second close should be a no-op, got", err)
	}
}

// TestCloseDrainsQueue: jobs accepted before Close still index.
func TestCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2, IngestWorkers: 1, QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 20
	ids := make([]string, 0, docs)
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		id, err := st.Enqueue(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := st.Job(id)
		if !ok || j.Status != JobDone {
			t.Fatalf("job %s not drained: %+v", id, j)
		}
	}
	if st.Len() != docs {
		t.Fatalf("store has %d docs after drain, want %d", st.Len(), docs)
	}
	// And the drained documents are durable.
	st2, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	if st2.Len() != docs {
		t.Fatalf("reopened store has %d docs, want %d", st2.Len(), docs)
	}
}

// TestConcurrentAddRemoveSearch exercises the shard locks under -race.
func TestConcurrentAddRemoveSearch(t *testing.T) {
	st, err := Open(Options{Shards: 4, IngestWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	const seed = 30
	for i := 0; i < seed; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name, xml := testDoc(1000 + w*100 + i)
				if err := st.AddXML(name, xml); err != nil {
					t.Errorf("add: %v", err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < seed; i += 2 {
			name, _ := testDoc(i)
			st.Remove(name)
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := search(context.Background(), st, "alpha", "", query.Options{Auto: true}, 10); err != nil {
					t.Errorf("search: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := st.Len(); got != seed/2+100 {
		t.Fatalf("final doc count %d, want %d", got, seed/2+100)
	}
}

// TestAutoCompaction: appends past CompactBytes trigger a background
// compaction that truncates the WAL.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2, CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st.Metrics().Counter(obs.MCompactions).Value() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.Metrics().Counter(obs.MCompactions).Value() == 0 {
		t.Fatal("no compaction despite WAL past threshold")
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	if st2.Len() != 40 {
		t.Fatalf("reopened store has %d docs, want 40", st2.Len())
	}
}

// TestTopKMerge: Run with k serves exactly the first k
// hits of Run with k = 0 — score bits, document, fragment — with the
// same Total, through score ties within and across documents and
// shards, so every offset/limit page cut from it matches the page cut
// from the full list.
func TestTopKMerge(t *testing.T) {
	st, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	const sec = "<s><p>foo alpha</p><p>bar</p></s>"
	for i := 0; i < 12; i++ {
		if err := st.AddXML(fmt.Sprintf("ties-%02d", i), "<a>"+sec+sec+sec+"</a>"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ q, filter string }{
		{"foo bar", "size<=3"},
		{"alpha|gamma", "size<=3"},
		{"alpha bar|retrieval", "size<=4"},
	} {
		full, err := search(context.Background(), st, c.q, c.filter, query.Options{Auto: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if full.Total != len(full.Hits) || full.Total < 20 {
			t.Fatalf("%q: full search has total %d and %d hits", c.q, full.Total, len(full.Hits))
		}
		for k := 1; k <= full.Total+1; k++ {
			top, err := search(context.Background(), st, c.q, c.filter, query.Options{Auto: true}, k)
			if err != nil {
				t.Fatal(err)
			}
			if top.Total != full.Total {
				t.Fatalf("%q k=%d: total %d, full %d", c.q, k, top.Total, full.Total)
			}
			if want := min(k, full.Total); len(top.Hits) != want {
				t.Fatalf("%q k=%d: %d hits, want %d", c.q, k, len(top.Hits), want)
			}
			for i, h := range top.Hits {
				f := full.Hits[i]
				if h.Document != f.Document || !h.Fragment.Equal(f.Fragment) || math.Float64bits(h.Score) != math.Float64bits(f.Score) {
					t.Fatalf("%q k=%d hit %d: %s %v %v, full list has %s %v %v",
						c.q, k, i, h.Document, h.Fragment, h.Score, f.Document, f.Fragment, f.Score)
				}
			}
		}
	}
}
