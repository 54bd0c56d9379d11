package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
)

// indexBattery is the query mix used by the term-index tests: bare
// terms, disjunction, phrase, and every pushable structural filter.
var indexBattery = []struct{ q, filter string }{
	{"alpha", ""},
	{"gamma", "size<=3"},
	{"alpha|gamma retrieval", ""},
	{"xml fragment", "depth<=4"},
	{"alpha", "size<=2"},
	{"\"xml alpha\"", ""},
	{"filler text", "height<=2"},
}

// searchKeys runs one battery entry and projects the hits.
func searchKeys(t *testing.T, s *Store, q, filter string) []string {
	t.Helper()
	r, err := search(context.Background(), s, q, filter, query.Options{Auto: true}, 0)
	if err != nil {
		t.Fatalf("search %q / %q: %v", q, filter, err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("search %q / %q errors: %v", q, filter, r.Errors)
	}
	return hitKeys(r.Hits)
}

// assertSameAnswers runs the battery against both stores and requires
// byte-identical hit sets.
func assertSameAnswers(t *testing.T, got, want *Store) {
	t.Helper()
	for _, c := range indexBattery {
		g, w := searchKeys(t, got, c.q, c.filter), searchKeys(t, want, c.q, c.filter)
		if len(g) != len(w) {
			t.Fatalf("query %q / %q: %d hits with index, %d without\n got %v\nwant %v",
				c.q, c.filter, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("query %q / %q: hit %d differs: %s vs %s", c.q, c.filter, i, g[i], w[i])
			}
		}
	}
}

// TestPostingFirstMatchesTreePath is the identical-answers check: a
// store with the posting prefilter enabled must return exactly the hit
// set of a plain store on every battery entry, and it must actually
// have consulted the postings.
func TestPostingFirstMatchesTreePath(t *testing.T) {
	indexed, err := Open(Options{Shards: 4, MemoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer indexed.Close(context.Background())
	plain, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close(context.Background())

	const docs = 60
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := indexed.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
		if err := plain.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	// A removal must drop out of the posting path too.
	gone, _ := testDoc(7)
	if !indexed.Remove(gone) || !plain.Remove(gone) {
		t.Fatal("remove failed")
	}

	assertSameAnswers(t, indexed, plain)

	if n := indexed.Metrics().Counter(obs.MIndexPrefilters).Value(); n == 0 {
		t.Fatal("indexed store never consulted the posting prefilter")
	}
	if n := plain.Metrics().Counter(obs.MIndexPrefilters).Value(); n != 0 {
		t.Fatalf("plain store consulted a prefilter %d times", n)
	}
	// The size<=2 filter must prune something: every testDoc body has
	// two witness-bearing <sec> branches far apart for most pairs.
	if indexed.Metrics().Counter(obs.MIndexPrunedDocs).Value() == 0 {
		t.Fatal("posting prefilter never pruned a document")
	}
}

// TestColdStartReusesPersistentIndex: restart with a populated
// -index-dir must reconstitute every per-document index from persisted
// postings instead of re-tokenizing, and answer identically.
func TestColdStartReusesPersistentIndex(t *testing.T) {
	dir, idir := t.TempDir(), t.TempDir()
	const docs = 40
	open := func() *Store {
		st, err := Open(Options{Dir: dir, IndexDir: idir, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	gone, _ := testDoc(11)
	if !st.Remove(gone) {
		t.Fatal("remove failed")
	}
	want := map[string][]string{}
	for _, c := range indexBattery {
		want[c.q+"|"+c.filter] = searchKeys(t, st, c.q, c.filter)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	st2 := open()
	defer st2.Close(context.Background())
	if st2.Len() != docs-1 {
		t.Fatalf("recovered %d docs, want %d", st2.Len(), docs-1)
	}
	if got := st2.TermIndex().Docs(); got != docs-1 {
		t.Fatalf("term index covers %d docs after restart, want %d", got, docs-1)
	}
	// Every live document must have been reconstituted from postings.
	if n := st2.Metrics().Counter(obs.MIndexReplayReused).Value(); n != docs-1 {
		t.Fatalf("replay reused %d documents, want %d", n, docs-1)
	}
	if n := st2.Metrics().Counter(obs.MIndexRebuilds).Value(); n != 0 {
		t.Fatalf("unexpected index rebuild (%d)", n)
	}
	for _, c := range indexBattery {
		got := searchKeys(t, st2, c.q, c.filter)
		w := want[c.q+"|"+c.filter]
		if len(got) != len(w) {
			t.Fatalf("query %q / %q after restart: %d hits, want %d", c.q, c.filter, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("query %q / %q after restart: hit %d differs: %s vs %s", c.q, c.filter, i, got[i], w[i])
			}
		}
	}
}

// copySegments copies every segment file under src into matching
// shard directories under dst (creating them), simulating on-disk
// states a crash can leave behind.
func copySegments(t *testing.T, src, dst string) int {
	t.Helper()
	n := 0
	shards, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range shards {
		if !sd.IsDir() {
			continue
		}
		if err := os.MkdirAll(filepath.Join(dst, sd.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(filepath.Join(src, sd.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), ".seg") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, sd.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sd.Name(), f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
}

// TestIndexCrashBetweenFlushAndMerge reconstructs the exact disk state
// a crash leaves when a merged (superseding) segment has been written
// but its input segments not yet deleted: both generations coexist.
// Reopen must keep the merged segment, delete the stale inputs, and
// answer correctly.
func TestIndexCrashBetweenFlushAndMerge(t *testing.T) {
	dir, idir := t.TempDir(), t.TempDir()
	// FlushBytes 1: every Put flushes its own segment, so segment
	// counts (and the merge at mergeEvery) are deterministic.
	st, err := Open(Options{Dir: dir, IndexDir: idir, IndexFlushBytes: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const preMerge = 5 // one short of the merge trigger
	for i := 0; i < preMerge; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the pre-merge generation (segments are immutable, so
	// copying while the store is live is safe).
	side := t.TempDir()
	if n := copySegments(t, idir, side); n != preMerge {
		t.Fatalf("copied %d pre-merge segments, want %d", n, preMerge)
	}
	const docs = 9 // crosses the merge trigger
	for i := preMerge; i < docs; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(context.Background()); err != nil { // waits for the merge
		t.Fatal(err)
	}
	if n := st.Metrics().Counter(obs.MIndexMerges).Value(); n == 0 {
		t.Fatal("merge never ran; crash state would be vacuous")
	}

	// Crash state: restore the superseded inputs next to the merged
	// segment.
	copySegments(t, side, idir)

	st2, err := Open(Options{Dir: dir, IndexDir: idir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	if n := st2.Metrics().Counter(obs.MIndexReplayReused).Value(); n != docs {
		t.Fatalf("replay reused %d documents, want %d", n, docs)
	}
	// The stale inputs must be gone from disk.
	files, err := os.ReadDir(filepath.Join(idir, "shard-0000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		for i := 0; i < preMerge; i++ {
			if f.Name() == segFileNameForTest(uint64(i)) {
				t.Fatalf("superseded segment %s survived reopen", f.Name())
			}
		}
	}

	plain, err := Open(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close(context.Background())
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := plain.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, st2, plain)
}

// segFileNameForTest mirrors gindex's segment naming without exporting
// it.
func segFileNameForTest(seq uint64) string {
	return "seg-" + strings.Repeat("0", 16-len(itoa(seq))) + itoa(seq) + ".seg"
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestCorruptIndexWipesAndRebuilds: a flipped byte in a segment makes
// the persistent index unreadable; the store must treat that as a
// cache miss — wipe, rebuild from the WAL, and serve correct answers.
func TestCorruptIndexWipesAndRebuilds(t *testing.T) {
	dir, idir := t.TempDir(), t.TempDir()
	st, err := Open(Options{Dir: dir, IndexDir: idir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 12
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var seg string
	filepath.WalkDir(idir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") && seg == "" {
			seg = path
		}
		return nil
	})
	if seg == "" {
		t.Fatal("no segment file written")
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, IndexDir: idir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	if n := st2.Metrics().Counter(obs.MIndexRebuilds).Value(); n != 1 {
		t.Fatalf("index rebuilds = %d, want 1", n)
	}
	if n := st2.Metrics().Counter(obs.MIndexReplayReused).Value(); n != 0 {
		t.Fatalf("replay reused %d documents from a wiped index", n)
	}
	if got := st2.TermIndex().Docs(); got != docs {
		t.Fatalf("rebuilt index covers %d docs, want %d", got, docs)
	}
	plain, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close(context.Background())
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := plain.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, st2, plain)
}

// TestReplicaIndexFromReplicationStream: a memory-indexed replica fed
// only WAL frames must keep its term index in lockstep — adds,
// removals, and a full ReplaceAll reset — and answer identically to
// the primary via the posting-first path.
func TestReplicaIndexFromReplicationStream(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(Options{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close(context.Background())
	const docs = 24
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := primary.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	gone, _ := testDoc(4)
	if !primary.Remove(gone) {
		t.Fatal("remove failed")
	}

	replica, err := Open(Options{Shards: 2, MemoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close(context.Background())
	for shard := 0; shard < primary.Shards(); shard++ {
		drainShard(t, primary, replica, shard)
	}

	if got := replica.TermIndex().Docs(); got != docs-1 {
		t.Fatalf("replica term index covers %d docs, want %d", got, docs-1)
	}
	assertSameAnswers(t, replica, primary)
	if n := replica.Metrics().Counter(obs.MIndexPrefilters).Value(); n == 0 {
		t.Fatal("replica never consulted its posting prefilter")
	}

	// Snapshot bootstrap resets the index to exactly the snapshot.
	snap, _, err := primary.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapDocs, err := DecodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(Options{Shards: 2, MemoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close(context.Background())
	if err := fresh.ReplaceAll(snapDocs); err != nil {
		t.Fatal(err)
	}
	if got := fresh.TermIndex().Docs(); got != docs-1 {
		t.Fatalf("post-ReplaceAll term index covers %d docs, want %d", got, docs-1)
	}
	assertSameAnswers(t, fresh, primary)
}

// TestIndexDirRequiresDataDir pins the configuration contract: the
// persistent index is a cache of the WAL and refuses to exist without
// one.
func TestIndexDirRequiresDataDir(t *testing.T) {
	if _, err := Open(Options{IndexDir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted IndexDir without Dir")
	}
}
