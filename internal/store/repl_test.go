package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/query"
	"repro/internal/xmltree"
)

// openReplica returns an in-memory store suitable as an apply target.
func openReplica(t *testing.T, shards int) *Store {
	t.Helper()
	st, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close(context.Background()) })
	return st
}

// drainShard streams one shard's frames from (epoch 0, offset 0) into
// the replica, returning the final offset.
func drainShard(t *testing.T, primary, replica *Store, shard int) int64 {
	t.Helper()
	var offset int64
	for {
		data, pos, err := primary.ReadWALFrames(shard, 0, offset, 64<<10)
		if err != nil {
			t.Fatalf("shard %d offset %d: %v", shard, offset, err)
		}
		if len(data) == 0 {
			if offset != pos.Offset {
				t.Fatalf("shard %d drained to %d but primary reports %d", shard, offset, pos.Offset)
			}
			return offset
		}
		if _, err := replica.ApplyReplicated(data); err != nil {
			t.Fatal(err)
		}
		offset += int64(len(data))
	}
}

// TestReplicationRoundTrip ships every shard's log into an in-memory
// replica (with a different shard count, which must not matter) and
// checks the replica answers searches identically.
func TestReplicationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close(context.Background())
	const docs = 20
	for i := 0; i < docs; i++ {
		name, xml := testDoc(i)
		if err := primary.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	// A removal and a replace must ship too. The primary's replace is
	// Remove + Add (two log records).
	gone, _ := testDoc(3)
	if !primary.Remove(gone) {
		t.Fatal("remove failed")
	}
	replacedName, _ := testDoc(5)
	if !primary.Remove(replacedName) {
		t.Fatal("remove for replace failed")
	}
	if err := primary.AddXML(replacedName, "<doc><t>delta replacement body</t></doc>"); err != nil {
		t.Fatal(err)
	}

	replica := openReplica(t, 3) // deliberately != primary's 4
	for shard := 0; shard < primary.Shards(); shard++ {
		drainShard(t, primary, replica, shard)
	}

	wantNames := primary.Names()
	gotNames := replica.Names()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("replica has %d docs, primary %d", len(gotNames), len(wantNames))
	}
	for i := range wantNames {
		if wantNames[i] != gotNames[i] {
			t.Fatalf("name %d: replica %q, primary %q", i, gotNames[i], wantNames[i])
		}
	}
	for _, q := range []string{"alpha", "alpha|gamma", "delta replacement"} {
		want, err := search(context.Background(), primary, q, "", query.Options{Auto: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(context.Background(), replica, q, "", query.Options{Auto: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Hits) != len(got.Hits) {
			t.Fatalf("query %q: replica %d hits, primary %d", q, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			w, g := want.Hits[i], got.Hits[i]
			// Fragment.Equal compares document identity; hits from two
			// stores hold distinct Document instances, so compare the
			// node-ID shape instead.
			wids, gids := w.Fragment.IDs(), g.Fragment.IDs()
			same := w.Document == g.Document && w.Score == g.Score && len(wids) == len(gids)
			for j := 0; same && j < len(wids); j++ {
				same = wids[j] == gids[j]
			}
			if !same {
				t.Fatalf("query %q hit %d: replica (%s, %v, %f) != primary (%s, %v, %f)",
					q, i, g.Document, g.Fragment, g.Score, w.Document, w.Fragment, w.Score)
			}
		}
	}
}

// TestReadWALFramesCompacted: after a compaction, old positions are
// gone (ErrWALCompacted) and the new position carries the previous
// epoch's extent so a caught-up follower can adopt it.
func TestReadWALFramesCompacted(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	for i := 0; i < 8; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	before, err := st.WALPositions()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for shard, p := range before {
		_, pos, err := st.ReadWALFrames(shard, p.Epoch, p.Offset, 1<<20)
		if !errors.Is(err, ErrWALCompacted) {
			t.Fatalf("shard %d: err %v, want ErrWALCompacted", shard, err)
		}
		if pos.Epoch != p.Epoch+1 {
			t.Fatalf("shard %d: epoch %d after compaction, want %d", shard, pos.Epoch, p.Epoch+1)
		}
		if pos.PrevSize != p.Offset || pos.PrevRecords != p.Records {
			t.Fatalf("shard %d: prev (%d bytes, %d records), want (%d, %d)",
				shard, pos.PrevSize, pos.PrevRecords, p.Offset, p.Records)
		}
		if pos.Offset != 0 {
			t.Fatalf("shard %d: fresh epoch offset %d, want 0", shard, pos.Offset)
		}
	}
	// Epochs survive a restart (wal.meta).
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	after, err := st2.WALPositions()
	if err != nil {
		t.Fatal(err)
	}
	for shard, p := range after {
		if p.Epoch != before[shard].Epoch+1 {
			t.Fatalf("shard %d: epoch %d after restart, want %d", shard, p.Epoch, before[shard].Epoch+1)
		}
	}
	// Reopening with a different shard count must refuse once epochs
	// exist: shard count is part of the on-disk layout.
	if err := st2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 5}); err == nil {
		t.Fatal("open with mismatched shard count should fail")
	}
}

// TestReplicationSnapshotBootstrap: the snapshot and the positions it
// returns are consistent — loading the snapshot and streaming from
// the positions yields exactly the primary's state, including writes
// that land after the snapshot.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	primary, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close(context.Background())
	for i := 0; i < 10; i++ {
		name, xml := testDoc(i)
		if err := primary.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	data, pos, err := primary.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pos {
		if p.Offset != 0 {
			t.Fatalf("snapshot position shard %d offset %d, want 0 (epoch start)", p.Shard, p.Offset)
		}
	}
	// Post-snapshot writes belong to the new epoch's log.
	for i := 10; i < 14; i++ {
		name, xml := testDoc(i)
		if err := primary.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	replica := openReplica(t, 2)
	if err := replica.ReplaceAll(docs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pos {
		var offset int64
		for {
			frames, _, err := primary.ReadWALFrames(p.Shard, p.Epoch, offset, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) == 0 {
				break
			}
			if _, err := replica.ApplyReplicated(frames); err != nil {
				t.Fatal(err)
			}
			offset += int64(len(frames))
		}
	}
	if got, want := replica.Len(), primary.Len(); got != want {
		t.Fatalf("replica %d docs after bootstrap+stream, want %d", got, want)
	}
	for i, name := range primary.Names() {
		if replica.Names()[i] != name {
			t.Fatalf("name %d: %q != %q", i, replica.Names()[i], name)
		}
	}
}

// TestApplyReplicatedRejectsDurable: a durable store must refuse the
// replica-only entry points.
func TestApplyReplicatedRejectsDurable(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	if _, err := st.ApplyReplicated(encodeFrame(walRecord{op: walOpAdd, name: "x", xml: "<a/>"})); !errors.Is(err, ErrDurableReplica) {
		t.Fatalf("ApplyReplicated on durable store: %v, want ErrDurableReplica", err)
	}
	if err := st.ReplaceAll(nil); !errors.Is(err, ErrDurableReplica) {
		t.Fatalf("ReplaceAll on durable store: %v, want ErrDurableReplica", err)
	}
	mem := openReplica(t, 2)
	if _, _, err := mem.ReadWALFrames(0, 0, 0, 1024); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ReadWALFrames on memory store: %v, want ErrNotDurable", err)
	}
}

// TestApplyReplicatedCorruptFrame: a bit flip in transit is caught by
// the frame checksum, applying nothing from the bad frame onward.
func TestApplyReplicatedCorruptFrame(t *testing.T) {
	good := encodeFrame(walRecord{op: walOpAdd, name: "ok", xml: "<a>alpha</a>"})
	bad := encodeFrame(walRecord{op: walOpAdd, name: "broken", xml: "<a>beta</a>"})
	bad[len(bad)-3] ^= 0x01
	replica := openReplica(t, 2)
	applied, err := replica.ApplyReplicated(append(append([]byte{}, good...), bad...))
	if err == nil {
		t.Fatal("corrupt frame applied without error")
	}
	if applied != 1 {
		t.Fatalf("applied %d frames before the corrupt one, want 1", applied)
	}
	if replica.Len() != 1 {
		t.Fatalf("replica has %d docs, want 1", replica.Len())
	}
}

// TestLegacyWALMigration: a data dir written by the single-log layout
// opens cleanly, migrates its records into per-shard logs, removes
// the legacy file, and replays identically on the next open.
func TestLegacyWALMigration(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyWALFile)
	f, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 6; i++ {
		name, xml := testDoc(i)
		if _, err := f.Write(encodeFrame(walRecord{op: walOpAdd, name: name, xml: xml})); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	dropped := names[2]
	if _, err := f.Write(encodeFrame(walRecord{op: walOpRemove, name: dropped})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 5 {
		t.Fatalf("migrated store has %d docs, want 5", got)
	}
	if st.Engine(dropped) != nil {
		t.Fatalf("removed doc %q resurrected by migration", dropped)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy wal still present after migration: %v", err)
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Second open replays the migrated per-shard logs.
	st2, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	if got := st2.Len(); got != 5 {
		t.Fatalf("re-opened migrated store has %d docs, want 5", got)
	}
}

// TestReplaceAllAtomicUnderConcurrentReads hammers ReplaceAll while
// reader goroutines continuously resolve every document. A bootstrap
// replacing the corpus with (a superset of) the same documents must
// never expose a partially-emptied store: each shard's contents swap
// atomically, so a document present before and after the swap is
// visible throughout.
func TestReplaceAllAtomicUnderConcurrentReads(t *testing.T) {
	replica := openReplica(t, 4)
	const docs = 16
	build := func() []*xmltree.Document {
		out := make([]*xmltree.Document, docs)
		for i := range out {
			name, xml := testDoc(i)
			doc, err := xmltree.ParseString(name, xml)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = doc
		}
		return out
	}
	if err := replica.ReplaceAll(build()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var missing atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < docs; i++ {
					name, _ := testDoc(i)
					if replica.Engine(name) == nil {
						missing.Add(1)
						return
					}
				}
			}
		}()
	}
	for n := 0; n < 50; n++ {
		if err := replica.ReplaceAll(build()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := missing.Load(); got != 0 {
		t.Fatalf("readers observed %d missing documents during ReplaceAll", got)
	}
	if replica.Len() != docs {
		t.Fatalf("replica has %d docs, want %d", replica.Len(), docs)
	}
}
