package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/query"
)

const tinyDoc = "<doc><par>ready probe</par></doc>"

// TestReadinessLifecycle checks the readiness report in its three
// states — serving, replaying, failed replay — by driving the
// replaying flag directly (the background goroutine's only interface
// to the rest of the store), so the test is deterministic.
func TestReadinessLifecycle(t *testing.T) {
	s, err := Open(Options{Shards: 2, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if err := s.AddXML("a.xml", tinyDoc); err != nil {
		t.Fatal(err)
	}

	r := s.Readiness()
	if !r.Ready || r.Replaying || r.Documents != 1 || r.QueueCapacity != 4 {
		t.Fatalf("serving state: %+v", r)
	}

	// Mid-replay: mutations bounce with ErrReplaying, readiness says
	// why, searches still serve what is already loaded.
	s.replaying.Store(true)
	r = s.Readiness()
	if r.Ready || !r.Replaying {
		t.Fatalf("replaying state: %+v", r)
	}
	if err := s.AddXML("b.xml", tinyDoc); !errors.Is(err, ErrReplaying) {
		t.Fatalf("Add during replay: %v", err)
	}
	if _, err := s.Enqueue("c.xml", tinyDoc); !errors.Is(err, ErrReplaying) {
		t.Fatalf("Enqueue during replay: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrReplaying) {
		t.Fatalf("Compact during replay: %v", err)
	}
	if s.Remove("a.xml") {
		t.Fatal("Remove must refuse during replay")
	}
	res, err := search(context.Background(), s, "ready", "", query.Options{Auto: true}, 0)
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("search during replay: %v (%d hits)", err, len(res.Hits))
	}

	// Failed replay: permanently not ready, with the error surfaced.
	s.replaying.Store(false)
	s.replayMu.Lock()
	s.replayErr = errors.New("disk gone")
	s.replayMu.Unlock()
	r = s.Readiness()
	if r.Ready || r.ReplayError != "disk gone" {
		t.Fatalf("failed-replay state: %+v", r)
	}
}

// TestBackgroundReplayEndToEnd persists documents, reopens the store
// with BackgroundReplay, and waits for it to become ready with every
// document back — the sequence a load balancer sees across a restart.
func TestBackgroundReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.xml", "b.xml", "c.xml"} {
		if err := s.AddXML(name, tinyDoc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Shards: 2, BackgroundReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := s2.Readiness()
		if r.Ready {
			if r.Documents != 3 || r.ReplayedRecords != 3 {
				t.Fatalf("recovered state: %+v", r)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never became ready: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
	// Ready means writable again.
	if err := s2.AddXML("d.xml", tinyDoc); err != nil {
		t.Fatalf("post-replay add: %v", err)
	}
}
