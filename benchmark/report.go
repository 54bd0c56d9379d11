package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

var workloadNames = []string{"search-selective", "search-joinheavy", "ingest-mixed", "restart-replica"}

// metricDef describes one metric the benchmark prints.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // larger is better
	Bound  float64 // share of the reference median by which it may get worse; 0 = no bound
	// On lists the workloads that report the metric; nil means all four.
	On []string
	// Gated marks the metrics BENCHMARK.json lists: every workload
	// reports them, end-to-end ones with -trace 0 and per-layer ones
	// with -trace 1. The others are printed and compared by this
	// program only (README.md, "What the driver gates").
	Gated bool
	Layer bool // per-layer metric: a -trace 1 run reports it
	// Live marks the per-layer metrics read from the running server or
	// the load generator. They come from the live windows, so an
	// end-to-end run prints them too.
	Live bool
}

// reportedBy tells whether a run of this kind on this workload reports
// the metric.
func (d metricDef) reportedBy(workload string, trace bool) bool {
	if d.On != nil && !slices.Contains(d.On, workload) {
		return false
	}
	if trace {
		return d.Layer
	}
	return !d.Layer || d.Live
}

var (
	onMixed   = []string{"ingest-mixed"}
	onReplica = []string{"restart-replica"}
)

// failBound is fail_ratio's bound. It is absolute, unlike the others:
// the reference value is 0.
const failBound = 0.001

var metricDefs = []metricDef{
	// End to end. The gated bounds are the ones BENCHMARK.json fixes:
	// at least three times the spread of ten runs on ten seeds on the
	// recorded machine (README.md, "Steadiness"), and never under the
	// issue's 10%.
	{Name: "setup_s", Unit: "s", Bound: 0.25, Gated: true},
	{Name: "search_p50_ms", Unit: "ms", Bound: 0.20, Gated: true},
	{Name: "search_p99_ms", Unit: "ms", Bound: 0.20},
	{Name: "search_throughput_rps", Unit: "1/s", Higher: true, Bound: 0.25, Gated: true},
	{Name: "ingest_p50_ms", Unit: "ms", Bound: 0.15, Gated: true},
	{Name: "ingest_p99_ms", Unit: "ms", Bound: 0.20},
	{Name: "restart_ready_s", Unit: "s", Bound: 0.15, Gated: true},
	{Name: "rss_peak_mb", Unit: "MB", Bound: 0.20, Gated: true},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Bound: 0.10, Gated: true},
	{Name: "ingest_throughput_docs_s", Unit: "1/s", Higher: true, Bound: 0.10, On: onMixed},
	{Name: "watch_lag_p50_ms", Unit: "ms", Bound: 0.10, On: onMixed},
	{Name: "watch_lag_p99_ms", Unit: "ms", Bound: 0.20, On: onMixed},
	{Name: "replica_catchup_s", Unit: "s", Bound: 0.10, On: onReplica},
	{Name: "fail_ratio", Unit: "ratio", Bound: failBound},

	// Per layer, in the order a request meets the layers. Gated ones are
	// reported by every workload's -trace 1 run: the replay's own
	// timings and counts, and (Live) what its live pass read from the
	// running server. The rest exist only where their On says.
	{Name: "client.sched_late_p99_ms", Unit: "ms", Layer: true, Live: true},
	{Name: "client.over_limit_ratio", Unit: "ratio", Layer: true, Live: true},
	{Name: "client.samples", Unit: "count", Layer: true, Live: true},
	{Name: "client.idle_search_p50_ms", Unit: "ms", Layer: true, Live: true},
	{Name: "net.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "httpapi.search.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "httpapi.search.resp_bytes", Unit: "B", Layer: true, Gated: true},
	{Name: "httpapi.adddoc.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "httpapi.shed_total", Unit: "count", Layer: true, Gated: true, Live: true},
	{Name: "store.ingest_stall_max_ms", Unit: "ms", Layer: true, On: onMixed, Live: true},
	{Name: "store.kill_lost_acks", Unit: "count", Layer: true, On: onReplica, Live: true},
	{Name: "store.run.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "store.addxml.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "store.wal_bytes_per_user_byte", Unit: "ratio", Layer: true, Gated: true, Live: true},
	{Name: "store.compactions", Unit: "count", Layer: true, Gated: true, Live: true},
	{Name: "store.compact_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "store.compact_bytes_rewritten", Unit: "B", Layer: true, Gated: true},
	{Name: "store.open_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "store.open_noindex_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "gindex.candidates_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "gindex.pruned_ratio", Unit: "ratio", Higher: true, Layer: true, Gated: true},
	{Name: "gindex.put_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "gindex.flush_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "gindex.open_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "gindex.segment_bytes_per_user_byte", Unit: "ratio", Layer: true, Gated: true, Live: true},
	{Name: "engine.plan_cold_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "engine.plan_hit_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "engine.plan_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "engine.plan_hit_ratio", Unit: "ratio", Higher: true, Layer: true, Gated: true, Live: true},
	{Name: "engine.run.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "collection.run.self_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "collection.add_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "query.parse_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "query.eval_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "query.docs_evaluated", Unit: "count", Layer: true, Gated: true},
	{Name: "query.answers_per_search", Unit: "count", Layer: true, Gated: true},
	{Name: "core.joins_per_search", Unit: "count", Layer: true, Gated: true},
	{Name: "core.dedup_probes_per_search", Unit: "count", Layer: true, Gated: true},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Higher: true, Layer: true, Gated: true},
	{Name: "core.select_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "core.reduce_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "core.join_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "core.ns_per_join", Unit: "ns", Layer: true, Gated: true},
	{Name: "index.lookup_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "index.build_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "index.postings_per_doc", Unit: "count", Layer: true, Gated: true},
	{Name: "ranking.rank_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "xmltree.parse_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "xmltree.bytes_per_node", Unit: "B", Layer: true, Gated: true},
	{Name: "snapshot.save_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "snapshot.load_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "snapshot.bytes_per_user_byte", Unit: "ratio", Layer: true, Gated: true, Live: true},
	{Name: "standing.delta_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "standing.fastpath_hit_ratio", Unit: "ratio", Higher: true, Layer: true, Gated: true, Live: true},
	{Name: "standing.dropped_total", Unit: "count", Layer: true, Gated: true, Live: true},
	{Name: "repl.lag_records_p50", Unit: "count", Layer: true, On: onReplica, Live: true},
	{Name: "repl.bootstraps", Unit: "count", Layer: true, On: onReplica, Live: true},
	{Name: "repl.snapshot_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "repl.apply_ms_per_record", Unit: "ms", Layer: true, Gated: true},
	{Name: "proc.cpu_s_per_op", Unit: "s", Layer: true, Gated: true, Live: true},
	{Name: "proc.rss_after_load_mb", Unit: "MB", Layer: true, Gated: true, Live: true},
	{Name: "proc.rss_bytes_per_doc", Unit: "B", Layer: true, Gated: true, Live: true},
	{Name: "trace.handler_serial_ms", Unit: "ms", Layer: true, Gated: true},
	{Name: "trace.residual_ratio", Unit: "ratio", Layer: true, Gated: true},
	{Name: "trace.replay_s", Unit: "s", Layer: true, Gated: true},
}

var defByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.Name] = d
	}
	return m
}()

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       envRecord          `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples counts the observations behind each latency metric.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

func newResult(workload string, trace bool, env envRecord) *result {
	return &result{Workload: workload, Trace: trace, Env: env, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// set records a metric. An unknown name, a second value for the same
// name, or a value that is not a number is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	if _, ok := defByName[name]; !ok {
		panic("benchmark: metric " + name + " is not in metricDefs")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Notes = append(r.Notes, name+" had no samples")
		v = 0
	}
	r.Metrics[name] = v
}

// setSeries records a p50/p99 pair and its sample count.
func (r *result) setSeries(p50, p99 string, ms []float64) {
	r.set(p50, quantile(ms, 0.5))
	r.set(p99, quantile(ms, 0.99))
	r.Samples[p50], r.Samples[p99] = len(ms), len(ms)
}

// print writes the human-readable table: every metric by name with its
// unit, grouped, in metricDefs order.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d, scale %s, %.0fs%s) ==\n", r.Workload, r.Env.Seed, r.Env.Scale, r.Env.Seconds, map[bool]string{true: ", trace"}[r.Trace])
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env %s\n", env)
	last := ""
	for _, d := range metricDefs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		group := "end-to-end"
		if d.Layer {
			group, _, _ = strings.Cut(d.Name, ".")
		}
		if group != last {
			fmt.Fprintf(w, "-- %s\n", group)
			last = group
		}
		samples := ""
		if n, ok := r.Samples[d.Name]; ok {
			samples = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s%s\n", d.Name, v, d.Unit, samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// contractLine is the last line of a single-workload run: exactly the
// metrics BENCHMARK.json names for this kind of run.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range metricDefs {
		if d.Gated && d.Layer == r.Trace {
			metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(line)
}

// resultSet is what -out writes and -compare reads: every run of a
// session, in order.
type resultSet struct {
	Runs []*result `json:"runs"`
}

func (s *resultSet) save(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// series groups a set's values by workload and metric.
func (s *resultSet) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// quartiles are the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (exclusive
// method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			return xs[0]
		}
		if j >= n {
			return xs[n-1]
		}
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// printSpread reports, per workload and metric, the median, the
// quartiles and the quartile distance as a share of the median.
func (s *resultSet) printSpread(w io.Writer) {
	series := s.series()
	for _, wl := range workloadNames {
		if series[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s: %d runs ==\n%-36s %12s %12s %12s %8s %7s\n", wl, len(series[wl]["setup_s"]), "metric", "q1", "median", "q3", "iqr/med", "bound")
		for _, d := range metricDefs {
			vals := series[wl][d.Name]
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.3g", d.Bound)
			}
			fmt.Fprintf(w, "%-36s %12.5g %12.5g %12.5g %8.3f %7s\n", d.Name, q1, q2, q3, spread, bound)
		}
	}
}

// compare prints, for every bounded metric both sets report, the two
// medians and their relative distance, and returns how many differ by
// more than the metric's bound. A metric within its bound whose own
// runs in a spread wider than the bound is marked unresolved: the sets
// cannot show it unchanged.
func compare(w io.Writer, a, b *resultSet) int {
	sa, sb := a.series(), b.series()
	over := 0
	for _, wl := range workloadNames {
		if sa[wl] == nil || sb[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n%-36s %12s %12s %9s %7s\n", wl, "metric", "median a", "median b", "diff", "bound")
		for _, d := range metricDefs {
			va, vb := sa[wl][d.Name], sb[wl][d.Name]
			if len(va) == 0 || len(vb) == 0 || d.Bound == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			diff := math.Abs(mb - ma)
			if d.Name != "fail_ratio" && ma != 0 {
				diff /= math.Abs(ma)
			}
			mark := ""
			q1, q2, q3 := quartiles(va)
			switch {
			case diff > d.Bound:
				mark = "  OVER"
				over++
			case len(va) > 1 && q2 != 0 && (q3-q1)/q2 > d.Bound:
				mark = "  unresolved"
			}
			fmt.Fprintf(w, "%-36s %12.5g %12.5g %9.4f %7.3g%s\n", d.Name, ma, mb, diff, d.Bound, mark)
		}
	}
	return over
}
