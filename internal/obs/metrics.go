package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. Engines, collections and the HTTP layer all
// register under these so dashboards see one vocabulary.
const (
	MQueries              = "queries_total"
	MQueryErrors          = "query_errors_total"
	MQueryTimeouts        = "query_timeouts_total"
	MQueriesShed          = "queries_shed_total"
	MInflightQueries      = "inflight_queries"
	MJoins                = "joins_total"
	MPairwiseJoins        = "pairwise_joins_total"
	MPowersetExpansions   = "powerset_expansions_total"
	MFixedPointIterations = "fixedpoint_iterations_total"
	MFilterPrunes         = "filter_prunes_total"
	MEnumNodes            = "enum_nodes_total"
	MEnumPrunes           = "enum_prunes_total"
	MQuerySeconds         = "query_seconds"
	MAnswerFragments      = "answer_fragments"
	MHTTPRequests         = "http_requests_total"
	MHTTPPanics           = "http_panics_total"
	MHTTPRequestSeconds   = "http_request_seconds"

	// Store / ingest-pipeline metrics (internal/store).
	MIngestQueueDepth  = "ingest_queue_depth"
	MIngestJobs        = "ingest_jobs_total"
	MIngestFailures    = "ingest_failures_total"
	MIngestRejected    = "ingest_rejected_total"
	MIngestSeconds     = "ingest_seconds"
	MStoreDocuments    = "store_documents"
	MWALRecords        = "wal_records_total"
	MWALBytes          = "wal_bytes"
	MWALReplayed       = "wal_replayed_total"
	MWALCorruptSkipped = "wal_corrupt_skipped_total"
	MCompactions       = "compactions_total"
	MSearchDeadline    = "search_deadline_exceeded_total"

	// Replication metrics (internal/repl). Applied/lag series live on
	// the follower; streams/bytes-sent on the primary.
	MReplAppliedRecords = "repl_applied_records_total"
	MReplAppliedBytes   = "repl_applied_bytes_total"
	MReplLagRecords     = "repl_lag_records"
	MReplLagBytes       = "repl_lag_bytes"
	MReplLagMs          = "repl_lag_ms"
	MReplStreamRestarts = "repl_stream_restarts_total"
	MReplBootstraps     = "repl_bootstraps_total"
	MReplStreamsActive  = "repl_streams_active"
	MReplBytesSent      = "repl_bytes_sent_total"

	// Global term index metrics (internal/gindex). Segment/flush/merge
	// series describe the persistent index's write path; the prefilter
	// and replay-reuse series quantify what it saves the read path.
	MIndexSegments     = "index_segments"
	MIndexSegmentBytes = "index_segment_bytes"
	MIndexMemBytes     = "index_memtable_bytes"
	MIndexDocs         = "index_documents"
	MIndexFlushes      = "index_flushes_total"
	MIndexMerges       = "index_merges_total"
	MIndexRebuilds     = "index_rebuilds_total"
	MIndexReplayReused = "index_replay_reused_total"
	MIndexPrefilters   = "index_prefilters_total"
	MIndexPrunedDocs   = "index_pruned_docs_total"
	MPostingPrunes     = "posting_prunes_total"

	// Standing-query metrics (internal/standing). Deltas count
	// per-document re-evaluations applied to materialized views;
	// events count the add/remove/update deltas actually emitted to
	// subscribers; resets count full re-snapshots (bootstrap swaps and
	// change-queue overflow recovery); dropped counts change
	// notifications the bounded queue shed (each schedules a resync,
	// so views stay correct — the counter measures pressure, not
	// loss). Cache hits count searches served straight from a
	// materialized view.
	MStandingSubscriptions = "standing_subscriptions"
	MStandingDeltas        = "standing_deltas_total"
	MStandingEvents        = "standing_events_total"
	MStandingResets        = "standing_resets_total"
	MStandingDropped       = "standing_changes_dropped_total"
	MStandingCacheHits     = "standing_cache_hits_total"
	MStandingErrors        = "standing_errors_total"
	MStandingDeltaSeconds  = "standing_delta_seconds"

	// Adaptive-planner metrics (internal/engine plan cache + per-shard
	// statistics). Hits serve a cached plan, misses compile one, replans
	// recompile after statistics drift; the epoch gauge exposes the
	// shard's statistics version so drift is observable externally.
	MPlannerPlanHits   = "planner_plan_hits_total"
	MPlannerPlanMisses = "planner_plan_misses_total"
	MPlannerReplans    = "planner_replans_total"
	MPlannerStatsEpoch = "planner_stats_epoch"
)

// LatencyBuckets are the fixed upper bounds (seconds) for latency
// histograms: 100µs to 2.5s, roughly ×2.5 per step.
var LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// SizeBuckets are the fixed upper bounds for cardinality histograms
// (answer-set sizes and the like).
var SizeBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: observations land in the
// first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end. Counts, sum and total are atomic; buckets
// are immutable after construction.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Safe for concurrent use. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketSnapshot is one cumulative histogram bucket: observations <=
// UpperBound (with UpperBound = +Inf on the last).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the bound as a string ("+Inf" on the last
// bucket, which has no float JSON encoding), mirroring Prometheus's
// le label.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatBound(b.UpperBound), b.Count)), nil
}

// formatBound renders a bucket upper bound for both JSON and the
// Prometheus le label.
func formatBound(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(ub, 'g', -1, 64)
}

// Buckets returns the cumulative bucket counts, Prometheus-style.
func (h *Histogram) Buckets() []BucketSnapshot {
	if h == nil {
		return nil
	}
	out := make([]BucketSnapshot, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = BucketSnapshot{UpperBound: ub, Count: cum}
	}
	return out
}

// Gauge is a metric that can go up and down (queue depths, document
// counts). All operations are atomic and nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metrics is a registry of named counters, gauges and histograms. One
// registry is instantiated per Collection (and per stand-alone
// Engine) and shared by the HTTP layer; get-or-create is safe for
// concurrent use and metric handles are stable once returned.
type Metrics struct {
	mu     sync.RWMutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.ctrs[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.ctrs[name]; c == nil {
		c = &Counter{}
		m.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe:
// a nil registry returns a nil (no-op) gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored). Nil-safe.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// RecordEval folds one evaluation's counters and outcome into the
// registry under the canonical names. Nil-safe.
func (m *Metrics) RecordEval(s CounterSnapshot, elapsed time.Duration, answers int) {
	if m == nil {
		return
	}
	m.Counter(MQueries).Add(1)
	m.Counter(MJoins).Add(s.Joins)
	m.Counter(MPairwiseJoins).Add(s.PairwiseJoins)
	m.Counter(MPowersetExpansions).Add(s.PowersetExpansions)
	m.Counter(MFixedPointIterations).Add(s.FixedPointIterations)
	m.Counter(MFilterPrunes).Add(s.FilterPrunes)
	m.Counter(MEnumNodes).Add(s.EnumNodes)
	m.Counter(MEnumPrunes).Add(s.EnumPrunes)
	m.Counter(MPostingPrunes).Add(s.PostingPrunes)
	m.Histogram(MQuerySeconds, LatencyBuckets).Observe(elapsed.Seconds())
	m.Histogram(MAnswerFragments, SizeBuckets).Observe(float64(answers))
}

// histogramSnapshot is the JSON shape of one histogram.
type histogramSnapshot struct {
	Buckets []BucketSnapshot `json:"buckets"`
	Sum     float64          `json:"sum"`
	Count   uint64           `json:"count"`
}

// Snapshot returns every metric as a JSON-marshalable map: counters
// as numbers, histograms as {buckets, sum, count}.
func (m *Metrics) Snapshot() map[string]any {
	out := make(map[string]any)
	if m == nil {
		return out
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, c := range m.ctrs {
		out[name] = c.Value()
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	for name, h := range m.hists {
		out[name] = histogramSnapshot{Buckets: h.Buckets(), Sum: h.Sum(), Count: h.Count()}
	}
	return out
}

// splitLabeledName separates a LabeledName-encoded registry name into
// its base metric name and its label body (without braces). Unlabeled
// names return an empty label body.
func splitLabeledName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), metric names prefixed with
// prefix + "_". Metrics appear in sorted name order. Labeled series
// (registered via LabeledName) render with their label set and share
// one # TYPE line per base name; histogram bucket lines merge the
// series labels with le.
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	if m == nil {
		return
	}
	m.mu.RLock()
	ctrNames := make([]string, 0, len(m.ctrs))
	for name := range m.ctrs {
		ctrNames = append(ctrNames, name)
	}
	gaugeNames := make([]string, 0, len(m.gauges))
	for name := range m.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	histNames := make([]string, 0, len(m.hists))
	for name := range m.hists {
		histNames = append(histNames, name)
	}
	ctrs := make(map[string]*Counter, len(m.ctrs))
	for name, c := range m.ctrs {
		ctrs[name] = c
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h
	}
	m.mu.RUnlock()

	sort.Strings(ctrNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)
	// typed tracks which base names already emitted their # TYPE line:
	// labeled series of one family share a single declaration.
	typed := make(map[string]struct{})
	writeType := func(full, kind string) {
		if _, done := typed[full]; done {
			return
		}
		typed[full] = struct{}{}
		fmt.Fprintf(w, "# TYPE %s %s\n", full, kind)
	}
	series := func(full, labels string) string {
		if labels == "" {
			return full
		}
		return full + "{" + labels + "}"
	}
	for _, name := range ctrNames {
		base, labels := splitLabeledName(name)
		full := prefix + "_" + base
		writeType(full, "counter")
		fmt.Fprintf(w, "%s %d\n", series(full, labels), ctrs[name].Value())
	}
	for _, name := range gaugeNames {
		base, labels := splitLabeledName(name)
		full := prefix + "_" + base
		writeType(full, "gauge")
		fmt.Fprintf(w, "%s %d\n", series(full, labels), gauges[name].Value())
	}
	for _, name := range histNames {
		base, labels := splitLabeledName(name)
		full := prefix + "_" + base
		h := hists[name]
		writeType(full, "histogram")
		for _, b := range h.Buckets() {
			if labels == "" {
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", full, formatBound(b.UpperBound), b.Count)
			} else {
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", full, labels, formatBound(b.UpperBound), b.Count)
			}
		}
		// The label set goes after the _sum/_count suffix — a labeled
		// series is "name_sum{labels}", never "name{labels}_sum".
		fmt.Fprintf(w, "%s %s\n", series(full+"_sum", labels), strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		fmt.Fprintf(w, "%s %d\n", series(full+"_count", labels), h.Count())
	}
}
