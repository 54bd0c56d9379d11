// Package store is the durable, sharded document store behind the
// HTTP server: the layer that turns the in-memory collection into
// something a production deployment can restart. Documents are
// partitioned across N shards by FNV-1a hash of their name — each
// shard is its own collection with its own lock and metrics registry,
// so an index build on one shard never blocks searches on another
// (the fragmentation-for-scale prerequisite the XML keyword-search
// literature takes as given). Durability comes from a checksummed
// write-ahead log of Add/Remove mutations replayed on startup, with
// snapshot-based compaction (internal/snapshot) bounding replay time.
// Ingest is asynchronous: a bounded queue feeds background indexing
// workers, with typed backpressure when the queue is full and job IDs
// for status polling. Search scatter-gathers across shards under a
// context deadline and merges with a global top-k heap.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gindex"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/xmltree"
)

// snapshotFile is the compaction snapshot's name inside Options.Dir.
const snapshotFile = "store.snap"

// planCacheCapacity bounds each shard's plan cache. Plans are tiny
// (a few slices per cached query shape), so the cap exists only to
// bound adversarial shape churn, not memory pressure.
const planCacheCapacity = 128

// legacyWALFile is the single-log layout used before the WAL was
// split per shard; an existing log is migrated on open (see recover).
const legacyWALFile = "wal.log"

// walMetaFile persists the per-shard WAL epochs (bumped on every
// compaction) so replication offsets stay meaningful across restarts.
const walMetaFile = "wal.meta"

// walShardFile names shard i's write-ahead log inside Options.Dir.
func walShardFile(i int) string { return fmt.Sprintf("wal-%04d.log", i) }

// Options configures a store. The zero value is a usable in-memory
// store (no durability) with default sharding and worker counts.
type Options struct {
	// Dir is the data directory holding the WAL and compaction
	// snapshot. Empty means no durability: a purely in-memory sharded
	// store.
	Dir string
	// Shards is the number of document partitions (default 8).
	Shards int
	// IngestWorkers is the number of background indexing goroutines
	// (default 4).
	IngestWorkers int
	// QueueSize bounds the async ingest queue; a full queue rejects
	// Enqueue with ErrQueueFull (default 256).
	QueueSize int
	// CompactBytes triggers automatic WAL compaction when the log
	// grows past this size (default 8 MiB; negative disables
	// auto-compaction — Compact can still be called explicitly).
	CompactBytes int64
	// SyncEveryAppend fsyncs the WAL after every append. Off by
	// default: the WAL is synced on compaction and on Close, trading
	// the tail of acknowledged-but-unsynced mutations for throughput,
	// like most LSM engines' default.
	SyncEveryAppend bool
	// SearchWorkers bounds the total per-document evaluation
	// concurrency of a search across all shards (default GOMAXPROCS).
	SearchWorkers int
	// BackgroundReplay recovers the snapshot and WAL in a background
	// goroutine: Open returns immediately, Readiness reports
	// Replaying until recovery finishes, and mutations are rejected
	// with ErrReplaying in the interim. Searches serve whatever is
	// already loaded — a load balancer watching /readyz keeps traffic
	// away from the node until replay completes.
	BackgroundReplay bool
	// IndexDir enables the persistent global term index
	// (internal/gindex): per-shard segment files of term → (doc, Dewey
	// label) postings. On restart, documents covered by segments skip
	// re-tokenization, and searches prune documents by posting-list
	// arithmetic before any per-document evaluation. Requires Dir (the
	// index is a cache of the WAL; without a log to rebuild from, a
	// stale index could outlive its documents).
	IndexDir string
	// IndexFlushBytes is the per-shard memtable budget before the term
	// index flushes a segment (default gindex.DefaultFlushBytes).
	IndexFlushBytes int64
	// MemoryIndex enables an in-memory (segment-less) global term
	// index: same posting-first pruning, no files. This is the replica
	// configuration — followers build it from the replicated WAL
	// stream. Ignored when IndexDir is set.
	MemoryIndex bool
}

// walShard is one shard's write-ahead log plus its replication
// cursor state. epoch counts compactions: every compaction truncates
// the log and bumps the epoch, so an (epoch, offset) pair names a
// unique log position across truncations. records counts records
// appended in the current epoch; prevSize/prevRecords remember where
// the previous epoch ended so a caught-up follower can adopt a new
// epoch without refetching a snapshot.
type walShard struct {
	mu          sync.Mutex
	w           *wal // nil until recovery has opened the log
	epoch       uint64
	records     uint64
	prevSize    int64
	prevRecords uint64
}

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.IngestWorkers <= 0 {
		o.IngestWorkers = 4
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 8 << 20
	}
	if o.SearchWorkers <= 0 {
		o.SearchWorkers = runtime.GOMAXPROCS(0)
	}
}

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrReplaying is returned by mutations while a background WAL replay
// (Options.BackgroundReplay) is still running: accepting a write
// before the log has been re-read could silently conflict with a
// logged-but-not-yet-replayed record of the same name.
var ErrReplaying = errors.New("store: WAL replay in progress; retry when ready")

// Store is a durable sharded document store. All methods are safe for
// concurrent use.
type Store struct {
	opts   Options
	shards []*collection.Collection

	// stats holds one statistics shard per collection shard, maintained
	// incrementally by the collection on every mutation path (direct
	// writes, async ingest, WAL replay, replica apply, SetAll). plans
	// holds the matching per-shard plan caches: compiled physical plans
	// keyed on query shape, re-planned when the statistics epoch drifts.
	stats []*stats.Shard
	plans []*engine.PlanCache

	// ingestMu fences mutations against compaction: every
	// WAL-append+index pair holds it for read, Compact holds it for
	// write, so a compaction snapshot never misses a logged-but-not-
	// yet-indexed document whose WAL record it is about to discard.
	ingestMu sync.RWMutex
	// wals holds one write-ahead log per shard (nil without a data
	// dir). The slice is allocated in Open and never reassigned; each
	// walShard guards its own log with its own mutex, so appends to
	// different shards never contend.
	wals []*walShard

	// gidx is the global term index (nil unless Options.IndexDir or
	// MemoryIndex). Mutations keep it ahead of the collections: a
	// document is Put before it becomes searchable and removed from the
	// collection before its index entry dies, so posting-first
	// candidate lists may name documents the collection no longer (or
	// not yet) holds — skipped harmlessly — but never miss a live one.
	gidx *gindex.Index
	// replaySrc holds, per shard, the one-shot replay view of the term
	// index segments; non-nil only during recovery.
	replaySrc []*gindex.ReplaySource

	metrics *obs.Metrics
	// recorder is the flight recorder sampled traces report into; set
	// once by SetTraceRecorder (atomic: ingest workers started in Open
	// read it before the HTTP layer wires it).
	recorder atomic.Pointer[obs.Recorder]
	// shardStageSeries precomputes the {shard,stage}-labeled histogram
	// names so the per-shard scatter-gather attribution allocates
	// nothing per query: [shard][stage] → registry name.
	shardStageSeries [][]string

	jobs       *jobTable
	queue      chan *job
	workers    sync.WaitGroup
	compacting atomic.Bool

	// replaying is true while a background recovery (snapshot load +
	// WAL replay) runs; mutations are rejected for the duration.
	// replayErr records a failed background recovery — the store then
	// never becomes ready.
	replaying atomic.Bool
	replayMu  sync.Mutex
	replayErr error

	closeMu sync.Mutex
	closed  bool
}

// Open creates a store. With a data directory it replays prior state
// (compaction snapshot, then WAL) before returning; the returned
// store is ready to serve reads and mutations. Close must be called
// to drain the ingest queue and sync the WAL.
func Open(opts Options) (*Store, error) {
	opts.setDefaults()
	if opts.IndexDir != "" && opts.Dir == "" {
		return nil, errors.New("store: IndexDir requires Dir (the term index is a cache of the WAL)")
	}
	s := &Store{
		opts:    opts,
		shards:  make([]*collection.Collection, opts.Shards),
		metrics: obs.NewMetrics(),
		jobs:    newJobTable(),
		queue:   make(chan *job, opts.QueueSize),
	}
	perShard := opts.SearchWorkers / opts.Shards
	if perShard < 1 {
		perShard = 1
	}
	s.shardStageSeries = make([][]string, opts.Shards)
	s.stats = make([]*stats.Shard, opts.Shards)
	s.plans = make([]*engine.PlanCache, opts.Shards)
	for i := range s.shards {
		s.shards[i] = collection.New()
		s.shards[i].SetSearchWorkers(perShard)
		// Statistics attach before recovery so WAL replay, snapshot
		// loads and replica bootstrap all feed the planner aggregates.
		s.stats[i] = stats.NewShard()
		s.shards[i].SetStatsShard(s.stats[i])
		s.plans[i] = engine.NewPlanCache(planCacheCapacity, 0)
		s.shardStageSeries[i] = make([]string, obs.NumStages)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			s.shardStageSeries[i][st] = obs.StageSeriesName(st, i)
		}
	}
	if opts.IndexDir != "" || opts.MemoryIndex {
		gi, err := openGIndex(opts, s.metrics)
		if err != nil {
			return nil, err
		}
		s.gidx = gi
		if gi.Persistent() {
			s.replaySrc = make([]*gindex.ReplaySource, opts.Shards)
			for i := range s.replaySrc {
				s.replaySrc[i] = gi.Shard(i).ReplaySource()
			}
		}
	}
	if opts.Dir != "" {
		s.wals = make([]*walShard, opts.Shards)
		for i := range s.wals {
			s.wals[i] = &walShard{}
		}
		if opts.BackgroundReplay {
			s.replaying.Store(true)
			go func() {
				err := s.recover()
				if err != nil {
					s.replayMu.Lock()
					s.replayErr = err
					s.replayMu.Unlock()
				}
				s.metrics.Gauge(obs.MStoreDocuments).Set(int64(s.Len()))
				// The Store(false) publishes every recovery write
				// (including the opened WAL handles) to mutators that
				// observe it.
				s.replaying.Store(false)
			}()
		} else if err := s.recover(); err != nil {
			return nil, err
		}
	}
	// Pre-register the pipeline metrics so /api/metrics exports the
	// full series from the first scrape, not after the first job.
	s.metrics.Gauge(obs.MStoreDocuments).Set(int64(s.Len()))
	s.metrics.Gauge(obs.MIngestQueueDepth).Set(0)
	s.metrics.Counter(obs.MIngestJobs)
	s.metrics.Counter(obs.MIngestFailures)
	s.metrics.Counter(obs.MIngestRejected)
	s.metrics.Histogram(obs.MIngestSeconds, obs.LatencyBuckets)
	s.metrics.Counter(obs.MPlannerPlanHits)
	s.metrics.Counter(obs.MPlannerPlanMisses)
	s.metrics.Counter(obs.MPlannerReplans)
	for i := 0; i < opts.IngestWorkers; i++ {
		s.workers.Add(1)
		go s.ingestWorker()
	}
	return s, nil
}

// openGIndex opens the global term index, treating a corrupt
// persistent index as a cache miss: the segments are wiped and the
// postings rebuilt from the replayed documents. Only an unreadable
// directory (not corrupt contents) fails the store open.
func openGIndex(opts Options, m *obs.Metrics) (*gindex.Index, error) {
	gopts := gindex.Options{Dir: opts.IndexDir, Shards: opts.Shards, FlushBytes: opts.IndexFlushBytes, Metrics: m}
	gi, err := gindex.Open(gopts)
	if err == nil || gopts.Dir == "" {
		return gi, err
	}
	if werr := gindex.Wipe(gopts.Dir); werr != nil {
		return nil, fmt.Errorf("store: wipe corrupt term index: %w", werr)
	}
	m.Counter(obs.MIndexRebuilds).Add(1)
	return gindex.Open(gopts)
}

// walMeta is the JSON sidecar persisting each shard's compaction
// epoch and where the previous epoch ended. It is rewritten on every
// compaction; a missing file means epoch 0 everywhere.
type walMeta struct {
	Epochs      []uint64 `json:"epochs"`
	PrevSizes   []int64  `json:"prev_sizes"`
	PrevRecords []uint64 `json:"prev_records"`
}

func loadWALMeta(dir string, shards int) (walMeta, error) {
	m := walMeta{
		Epochs:      make([]uint64, shards),
		PrevSizes:   make([]int64, shards),
		PrevRecords: make([]uint64, shards),
	}
	data, err := os.ReadFile(filepath.Join(dir, walMetaFile))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("store: read wal meta: %w", err)
	}
	var got walMeta
	if err := json.Unmarshal(data, &got); err != nil {
		return m, fmt.Errorf("store: parse wal meta: %w", err)
	}
	if len(got.Epochs) != shards {
		return m, fmt.Errorf("store: data dir was created with %d shards, store opened with %d (shard count is part of the on-disk layout)", len(got.Epochs), shards)
	}
	copy(m.Epochs, got.Epochs)
	copy(m.PrevSizes, got.PrevSizes)
	copy(m.PrevRecords, got.PrevRecords)
	return m, nil
}

// persistWALMeta writes the epochs sidecar durably (temp file, fsync,
// rename, dir fsync — compaction deletes log records on its strength).
func (s *Store) persistWALMeta() error {
	m := walMeta{
		Epochs:      make([]uint64, len(s.wals)),
		PrevSizes:   make([]int64, len(s.wals)),
		PrevRecords: make([]uint64, len(s.wals)),
	}
	for i, ws := range s.wals {
		m.Epochs[i] = ws.epoch
		m.PrevSizes[i] = ws.prevSize
		m.PrevRecords[i] = ws.prevRecords
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := filepath.Join(s.opts.Dir, walMetaFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return snapshot.SyncDir(s.opts.Dir)
}

// recover loads the compaction snapshot (if any) and replays every
// per-shard WAL into the shards. Replayed adds that duplicate a
// snapshotted document are skipped: compaction truncates the logs
// only after the snapshot is durable, so a crash between the two
// leaves records that are redundant, not conflicting. A legacy
// single-file wal.log from the pre-sharded layout is migrated into
// the per-shard logs and removed.
func (s *Store) recover() error {
	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("store: data dir: %w", err)
	}
	snapPath := filepath.Join(s.opts.Dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		// Keyword derivation is deferred: addRecovered installs keywords
		// from persisted postings when the term index covers a document,
		// and tokenizes only otherwise.
		docs, err := snapshot.LoadFileDeferred(snapPath)
		if err != nil {
			return fmt.Errorf("store: load snapshot: %w", err)
		}
		for _, d := range docs {
			if err := s.addRecovered(d); err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: stat snapshot: %w", err)
	}
	meta, err := loadWALMeta(s.opts.Dir, len(s.wals))
	if err != nil {
		return err
	}
	var totalReplayed, totalCorrupt int
	var totalBytes int64
	for i, ws := range s.wals {
		w, replayed, corrupt, err := openWAL(filepath.Join(s.opts.Dir, walShardFile(i)), s.applyWALRecord)
		if err != nil {
			return err
		}
		ws.mu.Lock()
		ws.w = w
		ws.epoch = meta.Epochs[i]
		ws.records = uint64(replayed)
		ws.prevSize = meta.PrevSizes[i]
		ws.prevRecords = meta.PrevRecords[i]
		ws.mu.Unlock()
		totalReplayed += replayed
		totalCorrupt += corrupt
		totalBytes += w.size
	}
	migrated, corrupt, err := s.migrateLegacyWAL()
	if err != nil {
		return err
	}
	totalReplayed += migrated
	totalCorrupt += corrupt
	if migrated > 0 {
		totalBytes = 0
		for _, ws := range s.wals {
			totalBytes += ws.w.size
		}
	}
	s.metrics.Counter(obs.MWALReplayed).Add(uint64(totalReplayed))
	s.metrics.Counter(obs.MWALCorruptSkipped).Add(uint64(totalCorrupt))
	s.metrics.Gauge(obs.MWALBytes).Set(totalBytes)
	s.reconcileIndex()
	return nil
}

// addRecovered adds one replayed document (from the snapshot or a WAL
// record), arriving keyword-deferred: when the term index's persisted
// postings cover this exact document — the cold-start fast path — its
// keywords AND its inverted index are reconstituted from the postings
// (no tokenization at all); otherwise keyword derivation is finished
// here and the document indexed into the term index. Duplicate names
// error exactly like collection.Add.
func (s *Store) addRecovered(doc *xmltree.Document) error {
	name := doc.Name()
	i := s.ShardIndex(name)
	sh := s.shards[i]
	if s.gidx == nil {
		doc.FinishKeywords()
		return sh.Add(doc)
	}
	h := gindex.HashDoc(doc)
	if s.replaySrc != nil {
		if postings, ok := s.replaySrc[i].Take(name, h, doc.Len()); ok {
			doc.InstallKeywords(gindex.KeywordsFromPostings(doc.Len(), postings))
			if err := sh.AddWithPostings(doc, postings); err != nil {
				return err
			}
			s.metrics.Counter(obs.MIndexReplayReused).Add(1)
			return nil
		}
	}
	doc.FinishKeywords()
	if err := sh.Add(doc); err != nil {
		return err
	}
	s.gidx.Shard(i).Put(doc, h)
	return nil
}

// reconcileIndex runs at the end of recovery: term-index entries whose
// documents did not survive the replay are removed (a crash can lose
// an unflushed tombstone while its WAL remove record survives), and
// the reconciled state is flushed so the next restart replays straight
// from segments. Flush failure degrades durability, not correctness —
// uncovered documents simply re-tokenize next time — so it does not
// fail recovery.
func (s *Store) reconcileIndex() {
	if s.gidx == nil {
		return
	}
	for i, sh := range s.shards {
		gsh := s.gidx.Shard(i)
		for _, name := range gsh.LiveNames() {
			if sh.Engine(name) == nil {
				gsh.Remove(name)
			}
		}
	}
	s.replaySrc = nil
	_ = s.gidx.Flush()
}

// migrateLegacyWAL replays a pre-sharding wal.log (if present) into
// the in-memory shards, re-appends its records to the per-shard logs,
// and deletes the legacy file. A crash mid-migration can leave both
// layouts on disk with a shared prefix; replaying that prefix twice
// is state-idempotent (a duplicate add is skipped, a duplicate remove
// is a no-op), so the next open converges to the same state and
// compaction eventually drops the redundant records.
func (s *Store) migrateLegacyWAL() (replayed, corrupt int, err error) {
	legacy := filepath.Join(s.opts.Dir, legacyWALFile)
	f, err := os.Open(legacy)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: open legacy wal: %w", err)
	}
	var recs []walRecord
	replayed, _, corrupt, err = replayWAL(f, func(rec walRecord) error {
		recs = append(recs, rec)
		return s.applyWALRecord(rec)
	})
	f.Close()
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		ws := s.wals[s.ShardIndex(rec.name)]
		ws.mu.Lock()
		err := ws.w.append(rec)
		if err == nil {
			ws.records++
			err = ws.w.sync()
		}
		ws.mu.Unlock()
		if err != nil {
			return 0, 0, fmt.Errorf("store: migrate legacy wal: %w", err)
		}
	}
	if err := os.Remove(legacy); err != nil {
		return 0, 0, fmt.Errorf("store: remove legacy wal: %w", err)
	}
	return replayed, corrupt, snapshot.SyncDir(s.opts.Dir)
}

func (s *Store) applyWALRecord(rec walRecord) error {
	switch rec.op {
	case walOpAdd:
		doc, err := xmltree.ParseStringDeferred(rec.name, rec.xml)
		if err != nil {
			// The record passed its checksum, so this is a logged
			// document the current parser rejects — surface it rather
			// than silently dropping acknowledged data.
			return fmt.Errorf("store: replay %q: %w", rec.name, err)
		}
		if err := s.addRecovered(doc); err != nil {
			// Duplicate of a snapshotted document (see recover).
			return nil
		}
	case walOpRemove:
		s.shardFor(rec.name).Remove(rec.name)
		if s.gidx != nil {
			s.gidx.Shard(s.ShardIndex(rec.name)).Remove(rec.name)
		}
	}
	return nil
}

// shardFor routes a document name to its shard by FNV-1a hash.
func (s *Store) shardFor(name string) *collection.Collection {
	h := fnv.New32a()
	h.Write([]byte(name))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// ShardIndex returns which shard holds (or would hold) name — for
// tests and diagnostics.
func (s *Store) ShardIndex(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shards returns the number of shards.
func (s *Store) Shards() int { return len(s.shards) }

// TermIndex returns the global term index, or nil when the store runs
// without one (no IndexDir/MemoryIndex option).
func (s *Store) TermIndex() *gindex.Index { return s.gidx }

// Metrics returns the store-level registry (ingest, WAL, compaction
// and search metrics). Per-shard engine metrics live in ShardMetrics.
func (s *Store) Metrics() *obs.Metrics { return s.metrics }

// SetChangeListener registers fn on every shard's change feed: fn
// observes each document upsert/remove and each wholesale shard reset,
// regardless of how the mutation arrived — synchronous Add, the async
// ingest pipeline, WAL-replay recovery, a replicated apply on a
// follower, or a snapshot bootstrap (ReplaceAll). fn runs under shard
// write locks and MUST be fast and non-blocking (see
// collection.SetChangeListener). One listener; nil unregisters.
func (s *Store) SetChangeListener(fn func(collection.Change)) {
	for _, sh := range s.shards {
		sh.SetChangeListener(fn)
	}
}

// SetTraceRecorder wires the flight recorder sampled queries and
// traced ingest jobs report into. Safe to call while serving; a nil
// recorder disables trace recording.
func (s *Store) SetTraceRecorder(r *obs.Recorder) { s.recorder.Store(r) }

// TraceRecorder returns the wired flight recorder (nil when tracing
// is disabled).
func (s *Store) TraceRecorder() *obs.Recorder { return s.recorder.Load() }

// ShardMetrics returns each shard's registry, indexed by shard.
func (s *Store) ShardMetrics() []*obs.Metrics {
	out := make([]*obs.Metrics, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Metrics()
	}
	return out
}

// ShardStatsSummary returns shard i's maintained planner statistics.
func (s *Store) ShardStatsSummary(i int) stats.Summary {
	return s.stats[i].Snapshot()
}

// ShardPlan is one shard's compiled plan for a query, as served by its
// plan cache.
type ShardPlan struct {
	Shard   int
	Plan    *query.Plan
	Outcome engine.PlanOutcome
}

// ExplainPlans runs every shard's planner for q — through the real
// plan caches, so explain shows exactly the plan a search would use
// (and warms the cache for one). Planner counters advance as on the
// search path.
func (s *Store) ExplainPlans(q query.Query, ch cost.Chooser) []ShardPlan {
	out := make([]ShardPlan, len(s.shards))
	for i := range s.shards {
		p, outcome := s.planShard(i, q, ch)
		out[i] = ShardPlan{Shard: i, Plan: p, Outcome: outcome}
	}
	return out
}

// planShard serves shard i's compiled plan for q from its plan cache,
// advancing the planner counters.
func (s *Store) planShard(i int, q query.Query, ch cost.Chooser) (*query.Plan, engine.PlanOutcome) {
	p, outcome := s.plans[i].Plan(q, ch, s.stats[i])
	switch outcome {
	case engine.PlanHit:
		s.metrics.Counter(obs.MPlannerPlanHits).Add(1)
	case engine.PlanReplan:
		s.metrics.Counter(obs.MPlannerReplans).Add(1)
	default:
		s.metrics.Counter(obs.MPlannerPlanMisses).Add(1)
	}
	return p, outcome
}

// Add indexes a parsed document synchronously: the mutation is
// WAL-logged before it is acknowledged. Use Enqueue for the async
// path.
func (s *Store) Add(doc *xmltree.Document) error {
	if s.isClosed() {
		return ErrClosed
	}
	if s.replaying.Load() {
		return ErrReplaying
	}
	return s.addParsed(doc.Name(), doc.XMLString(), doc)
}

// AddXML parses and indexes an XML document synchronously.
func (s *Store) AddXML(name, xml string) error {
	if s.isClosed() {
		return ErrClosed
	}
	if s.replaying.Load() {
		return ErrReplaying
	}
	doc, err := xmltree.ParseString(name, xml)
	if err != nil {
		return err
	}
	return s.addParsed(name, xml, doc)
}

// addParsed logs and indexes one document. The WAL record goes first
// (log-ahead); a duplicate-name failure after logging leaves a
// redundant record that replay skips. No closed check here: ingest
// workers drain already-accepted jobs through this path after Close
// has been entered.
func (s *Store) addParsed(name, xml string, doc *xmltree.Document) error {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	sh := s.shardFor(name)
	if sh.Engine(name) != nil {
		return fmt.Errorf("store: duplicate document %q", name)
	}
	if err := s.logRecord(walRecord{op: walOpAdd, name: name, xml: xml}); err != nil {
		return err
	}
	// Term index before collection: from the moment the document is
	// searchable, posting-first selection can see it. The reverse order
	// would open a window where a prefilter wrongly prunes a live
	// document.
	if s.gidx != nil {
		s.gidx.Shard(s.ShardIndex(name)).Put(doc, gindex.HashDoc(doc))
	}
	if err := sh.Add(doc); err != nil {
		// A concurrent add of the same name won the race (both passed
		// the duplicate check under the shared read lock). Re-point the
		// index entry at the winner's document.
		if s.gidx != nil {
			if eng := sh.Engine(name); eng != nil {
				winner := eng.Document()
				s.gidx.Shard(s.ShardIndex(name)).Put(winner, gindex.HashDoc(winner))
			}
		}
		return err
	}
	s.metrics.Gauge(obs.MStoreDocuments).Add(1)
	return nil
}

// Remove drops the named document, logging the removal when present.
func (s *Store) Remove(name string) bool {
	if s.isClosed() || s.replaying.Load() {
		return false
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if !s.shardFor(name).Remove(name) {
		return false
	}
	// Collection first, index second: in between, a prefilter may list
	// the name as a candidate, which the evaluation skips as unknown.
	if s.gidx != nil {
		s.gidx.Shard(s.ShardIndex(name)).Remove(name)
	}
	s.metrics.Gauge(obs.MStoreDocuments).Add(-1)
	// Log after the in-memory remove: a crash in between replays the
	// add without the remove, which is the pre-call state — acceptable
	// for an unacknowledged removal.
	if err := s.logRecord(walRecord{op: walOpRemove, name: name}); err != nil {
		return true // removed in memory; durability degraded
	}
	return true
}

// logRecord appends one mutation to its shard's WAL (no-op without a
// data dir) and triggers compaction when the combined logs have
// outgrown CompactBytes. Caller holds ingestMu.RLock; only the
// record's own shard log is locked, so appends to different shards
// proceed in parallel.
func (s *Store) logRecord(rec walRecord) error {
	if s.wals == nil {
		return nil
	}
	ws := s.wals[s.ShardIndex(rec.name)]
	ws.mu.Lock()
	if ws.w == nil { // background replay still opening logs
		ws.mu.Unlock()
		return ErrReplaying
	}
	before := ws.w.size
	err := ws.w.append(rec)
	if err == nil && s.opts.SyncEveryAppend {
		err = ws.w.sync()
	}
	written := ws.w.size - before
	if err == nil {
		ws.records++
	}
	ws.mu.Unlock()
	if err != nil {
		return err
	}
	s.metrics.Counter(obs.MWALRecords).Add(1)
	total := s.metrics.Gauge(obs.MWALBytes)
	total.Add(written)
	if s.opts.CompactBytes > 0 && total.Value() > s.opts.CompactBytes && s.compacting.CompareAndSwap(false, true) {
		// Compact needs ingestMu exclusively; run it from a fresh
		// goroutine so this mutation's read-hold can release first.
		// The CAS keeps a burst of over-threshold appends from piling
		// up redundant compactions.
		go func() {
			defer s.compacting.Store(false)
			s.Compact()
		}()
	}
	return nil
}

// Compact writes a durable snapshot of every document, truncates
// every shard WAL, and bumps each shard's epoch. Concurrent mutations
// block for the duration (they would otherwise race their log records
// against the truncation). Safe to call at any time; without a data
// dir it is a no-op.
func (s *Store) Compact() error {
	if s.replaying.Load() {
		return ErrReplaying
	}
	if s.wals == nil {
		return nil
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.compactLocked()
}

// compactLocked is Compact's body; the caller holds ingestMu
// exclusively (ReplicationSnapshot shares it so the snapshot it hands
// a bootstrapping follower corresponds exactly to offset 0 of the new
// epochs).
func (s *Store) compactLocked() error {
	var docs []*xmltree.Document
	for _, sh := range s.shards {
		for _, name := range sh.Names() {
			docs = append(docs, sh.Engine(name).Document())
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name() < docs[j].Name() })
	if err := snapshot.SaveFile(filepath.Join(s.opts.Dir, snapshotFile), docs...); err != nil {
		return fmt.Errorf("store: compact snapshot: %w", err)
	}
	for _, ws := range s.wals {
		ws.mu.Lock()
		if ws.w == nil {
			ws.mu.Unlock()
			return ErrClosed
		}
		ws.prevSize = ws.w.size
		ws.prevRecords = ws.records
		err := ws.w.reset()
		if err == nil {
			ws.epoch++
			ws.records = 0
		}
		ws.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: compact wal reset: %w", err)
		}
	}
	if err := s.persistWALMeta(); err != nil {
		return fmt.Errorf("store: compact wal meta: %w", err)
	}
	s.metrics.Counter(obs.MCompactions).Add(1)
	s.metrics.Gauge(obs.MWALBytes).Set(0)
	// Best-effort: keep the term index's segment coverage at least as
	// fresh as the snapshot that just truncated the logs, so cold-start
	// reuse keeps pace with compaction.
	if s.gidx != nil && s.gidx.Persistent() {
		_ = s.gidx.Flush()
	}
	return nil
}

// Len returns the number of documents across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Names returns every document name in sorted order. (Insertion order
// is not preserved across shards or restarts; sorted order is the
// store's canonical iteration order.)
func (s *Store) Names() []string {
	var names []string
	for _, sh := range s.shards {
		names = append(names, sh.Names()...)
	}
	sort.Strings(names)
	return names
}

// Engine returns the per-document engine, or nil if absent.
func (s *Store) Engine(name string) *engine.Engine {
	return s.shardFor(name).Engine(name)
}

// Stats aggregates document and index sizes across every shard.
func (s *Store) Stats() collection.Stats {
	var out collection.Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Documents += st.Documents
		out.Nodes += st.Nodes
		out.Terms += st.Terms
		out.Postings += st.Postings
	}
	return out
}

// DocFreq returns how many documents contain term at least once.
func (s *Store) DocFreq(term string) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.DocFreq(term)
	}
	return n
}

// Readiness is the load-balancer-facing state of the store: whether
// it should receive traffic, and why not when it shouldn't. It backs
// the HTTP layer's GET /readyz.
type Readiness struct {
	// Ready is false while the WAL is replaying, after a failed
	// background replay, and while the ingest queue is saturated.
	Ready bool `json:"ready"`
	// Replaying reports a background recovery still in progress.
	Replaying bool `json:"replaying"`
	// ReplayError is the terminal error of a failed background
	// recovery (the store stays not-ready).
	ReplayError string `json:"replay_error,omitempty"`
	// ReplayedRecords / CorruptSkipped are the WAL replay counters.
	ReplayedRecords uint64 `json:"wal_replayed"`
	CorruptSkipped  uint64 `json:"wal_corrupt_skipped"`
	// QueueDepth / QueueCapacity describe ingest saturation; a full
	// queue marks the node not ready so new traffic lands elsewhere.
	QueueDepth    int `json:"ingest_queue_depth"`
	QueueCapacity int `json:"ingest_queue_capacity"`
	// Documents is the number of indexed documents so far.
	Documents int `json:"documents"`
}

// Readiness reports whether the store can usefully serve traffic.
func (s *Store) Readiness() Readiness {
	r := Readiness{
		Replaying:       s.replaying.Load(),
		ReplayedRecords: s.metrics.Counter(obs.MWALReplayed).Value(),
		CorruptSkipped:  s.metrics.Counter(obs.MWALCorruptSkipped).Value(),
		QueueDepth:      len(s.queue),
		QueueCapacity:   cap(s.queue),
		Documents:       s.Len(),
	}
	s.replayMu.Lock()
	if s.replayErr != nil {
		r.ReplayError = s.replayErr.Error()
	}
	s.replayMu.Unlock()
	r.Ready = !r.Replaying && r.ReplayError == "" && r.QueueDepth < r.QueueCapacity
	return r
}

func (s *Store) isClosed() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return s.closed
}

// Close drains the ingest queue (queued jobs still index and log),
// stops the workers, and syncs and closes the WAL. The store rejects
// mutations from the moment Close is entered; searches against the
// in-memory shards keep working.
func (s *Store) Close(ctx context.Context) error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	var firstErr error
	for _, ws := range s.wals {
		ws.mu.Lock()
		if ws.w != nil {
			if err := ws.w.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			ws.w = nil
		}
		ws.mu.Unlock()
	}
	if s.gidx != nil {
		if err := s.gidx.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
