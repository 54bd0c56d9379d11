package engine

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/obs"
	"repro/internal/query"
)

func TestEngineRecordsMetrics(t *testing.T) {
	m := obs.NewMetrics()
	e := NewWithMetrics(docgen.FigureOne(), m)

	for n := uint64(1); n <= 2; n++ {
		if _, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Auto: true}); err != nil {
			t.Fatal(err)
		}
		// Every call is a real evaluation: nothing between the engine
		// and the evaluator answers from memory.
		if got := m.Counter(obs.MQueries).Value(); got != n {
			t.Fatalf("%s = %d, want %d", obs.MQueries, got, n)
		}
		if got := m.Histogram(obs.MQuerySeconds, obs.LatencyBuckets).Count(); got != n {
			t.Fatalf("%s count = %d, want %d", obs.MQuerySeconds, got, n)
		}
	}
	// auto enumerates the answers under the pushable size<=3: it forms
	// partial subtrees and executes no join.
	if m.Counter(obs.MEnumNodes).Value() == 0 {
		t.Fatalf("%s = 0, want > 0", obs.MEnumNodes)
	}
	if _, err := runQuery(e, "XQuery optimization", "size<=3", query.Options{Strategy: cost.PushDown}); err != nil {
		t.Fatal(err)
	}
	if m.Counter(obs.MJoins).Value() == 0 {
		t.Fatalf("%s = 0 after a push-down search, want > 0", obs.MJoins)
	}
}

func TestEngineTrace(t *testing.T) {
	e := figure1Engine(t)
	q := "XQuery optimization"

	plain, err := runQuery(e, q, "size<=3", query.Options{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Result.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}
	traced, err := runQuery(e, q, "size<=3", query.Options{Auto: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Result.Trace == nil {
		t.Fatal("traced query lost its trace")
	}
	if !traced.Result.Answers.Equal(plain.Result.Answers) {
		t.Fatal("traced answers differ from untraced answers")
	}
}
