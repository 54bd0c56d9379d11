package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestEvalCountersNilSafe(t *testing.T) {
	var c *EvalCounters
	c.AddJoins(3)
	c.AddPairwiseJoins(1)
	c.AddPowersetExpansions(1)
	c.AddFixedPointIterations(1)
	c.AddFilterPrunes(1)
	c.AddEnumPrunes(1)
	c.Reset()
	if c.Joins() != 0 {
		t.Fatalf("nil counters Joins = %d, want 0", c.Joins())
	}
	if s := c.Snapshot(); s != (CounterSnapshot{}) {
		t.Fatalf("nil counters Snapshot = %+v, want zero", s)
	}
}

func TestEvalCountersSnapshotAndReset(t *testing.T) {
	c := new(EvalCounters)
	c.AddJoins(5)
	c.AddPairwiseJoins(2)
	c.AddFilterPrunes(7)
	c.AddEnumPrunes(6)
	s := c.Snapshot()
	if s.Joins != 5 || s.PairwiseJoins != 2 || s.FilterPrunes != 7 || s.EnumPrunes != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
	c.Reset()
	if s := c.Snapshot(); s != (CounterSnapshot{}) {
		t.Fatalf("after Reset snapshot = %+v, want zero", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	bs := h.Buckets()
	// Cumulative: le=1 → {0.5, 1}, le=2 → +{1.5}, le=5 → +{3}, +Inf → +{100}.
	wantCum := []uint64{2, 3, 4, 5}
	for i, w := range wantCum {
		if bs[i].Count != w {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, bs[i].UpperBound, bs[i].Count, w)
		}
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.Counter("x").Add(1)
	m.Histogram("y", SizeBuckets).Observe(1)
	m.RecordEval(CounterSnapshot{Joins: 3}, time.Millisecond, 2)
	if m.Counter("x").Value() != 0 {
		t.Fatal("nil registry counter should read 0")
	}
}

func TestMetricsRecordEvalAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.RecordEval(CounterSnapshot{Joins: 10, FilterPrunes: 4, EnumPrunes: 3}, 2*time.Millisecond, 3)
	m.RecordEval(CounterSnapshot{Joins: 5}, time.Millisecond, 1)
	if got := m.Counter(MQueries).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MQueries, got)
	}
	if got := m.Counter(MJoins).Value(); got != 15 {
		t.Fatalf("%s = %d, want 15", MJoins, got)
	}
	snap := m.Snapshot()
	if snap[MFilterPrunes] != uint64(4) {
		t.Fatalf("snapshot %s = %v, want 4", MFilterPrunes, snap[MFilterPrunes])
	}
	if snap[MEnumPrunes] != uint64(3) {
		t.Fatalf("snapshot %s = %v, want 3", MEnumPrunes, snap[MEnumPrunes])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter(MQueries).Add(7)
	m.Histogram(MQuerySeconds, LatencyBuckets).Observe(0.003)
	var sb strings.Builder
	m.WritePrometheus(&sb, "xfrag")
	out := sb.String()
	for _, want := range []string{
		"# TYPE xfrag_queries_total counter",
		"xfrag_queries_total 7",
		"# TYPE xfrag_query_seconds histogram",
		`xfrag_query_seconds_bucket{le="+Inf"} 1`,
		"xfrag_query_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	c := s.Start("op", "d")
	if c != nil {
		t.Fatal("nil span Start should return nil")
	}
	c.SetDetail("x")
	c.Finish(1, 2)
	if c.Render() != "" {
		t.Fatal("nil span should render empty")
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("evaluate", "")
	root.SetDetail("push-down")
	child := root.Start("seed", "xquery")
	child.Finish(2)
	join := root.Start("pairwise-join", "")
	join.Finish(4, 3, 2)
	root.Finish(4)

	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if got := join.In; len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("join.In = %v, want [3 2]", got)
	}
	out := root.Render()
	for _, want := range []string{"evaluate [push-down]", "  seed [xquery] out=2", "  pairwise-join in=[3 2] out=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"op":"evaluate"`) {
		t.Fatalf("json missing op: %s", b)
	}
}

func TestGauge(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("depth")
	g.Set(7)
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge value %d, want 10", got)
	}
	if m.Gauge("depth") != g {
		t.Fatal("gauge handle not stable")
	}
	snap := m.Snapshot()
	if snap["depth"] != int64(10) {
		t.Fatalf("snapshot gauge = %v (%T), want 10", snap["depth"], snap["depth"])
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf, "t")
	out := buf.String()
	if !strings.Contains(out, "# TYPE t_depth gauge\nt_depth 10\n") {
		t.Fatalf("prometheus gauge rendering:\n%s", out)
	}
	// Nil registry and nil gauge are no-ops.
	var nilM *Metrics
	nilM.Gauge("x").Set(1)
	nilM.Gauge("x").Add(1)
	if nilM.Gauge("x").Value() != 0 {
		t.Fatal("nil gauge not zero")
	}
}
