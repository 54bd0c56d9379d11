package store

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// plannerQueries are the shapes the planner correctness tests sweep:
// single term, conjunction, disjunction, phrase, and a filtered query
// that exercises the push-down override in front of the plan.
var plannerQueries = []struct{ keywords, filters string }{
	{"alpha", ""},
	{"gamma retrieval", ""},
	{"xml fragment", "size<=3"},
	{"alpha|gamma", ""},
	{"\"filler text\"", "size<=4"},
}

// TestPlannerAnswersMatchForcedStrategies is the planner's core
// soundness check: the adaptive auto path (per-shard compiled plans)
// returns exactly the hit set of every forced strategy, so plans can
// only change speed, never answers.
func TestPlannerAnswersMatchForcedStrategies(t *testing.T) {
	st, err := Open(Options{Shards: 4, MemoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	for i := 0; i < 200; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range plannerQueries {
		auto, err := search(context.Background(), st, tc.keywords, tc.filters, query.Options{Auto: true}, 0)
		if err != nil {
			t.Fatalf("auto search %q: %v", tc.keywords, err)
		}
		if len(auto.Errors) != 0 {
			t.Fatalf("auto search %q errors: %v", tc.keywords, auto.Errors)
		}
		want := hitKeys(auto.Hits)
		for _, strat := range []cost.Strategy{cost.Naive, cost.SetReduction} {
			forced, err := search(context.Background(), st, tc.keywords, tc.filters, query.Options{Strategy: strat}, 0)
			if err != nil {
				t.Fatalf("forced %v search %q: %v", strat, tc.keywords, err)
			}
			if len(forced.Errors) != 0 {
				t.Fatalf("forced %v search %q errors: %v", strat, tc.keywords, forced.Errors)
			}
			got := hitKeys(forced.Hits)
			if len(got) != len(want) {
				t.Fatalf("%q: forced %v returned %d hits, auto %d", tc.keywords, strat, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%q: forced %v hit %d = %s, auto %s", tc.keywords, strat, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlannerReplanOnMutationPaths drives every mutation path a plan
// cache must notice — direct adds, replica-applied replaces and
// removes, and a bootstrap ReplaceAll — and checks the statistics
// epoch drift triggers a re-plan on each.
func TestPlannerReplanOnMutationPaths(t *testing.T) {
	st, err := Open(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	for i := 0; i < 3; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	q, err := query.Parse("alpha retrieval", "")
	if err != nil {
		t.Fatal(err)
	}
	ch := cost.DefaultChooser()

	plans := st.ExplainPlans(q, ch)
	if len(plans) != 1 || plans[0].Outcome != engine.PlanMiss || plans[0].Plan == nil {
		t.Fatalf("first plan: %+v, want miss", plans)
	}
	if plans = st.ExplainPlans(q, ch); plans[0].Outcome != engine.PlanHit {
		t.Fatalf("second plan: %v, want hit", plans[0].Outcome)
	}

	// Direct adds past the adaptive drift limit (16 + docs/8).
	for i := 3; i < 40; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	if plans = st.ExplainPlans(q, ch); plans[0].Outcome != engine.PlanReplan {
		t.Fatalf("after adds: %v, want replan", plans[0].Outcome)
	}
	if sum := st.ShardStatsSummary(0); sum.Docs != 40 {
		t.Fatalf("stats track %d docs, want 40", sum.Docs)
	}

	// Replica apply: replaces and removes through applyReplicatedRecord
	// hit collection.Replace/Remove, which must feed the same
	// statistics.
	for i := 0; i < 30; i++ {
		name, xml := testDoc(i)
		if err := st.applyReplicatedRecord(walRecord{op: walOpAdd, name: name, xml: xml}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.applyReplicatedRecord(walRecord{op: walOpRemove, name: "doc-0001"}); err != nil {
		t.Fatal(err)
	}
	if plans = st.ExplainPlans(q, ch); plans[0].Outcome != engine.PlanReplan {
		t.Fatalf("after replica apply: %v, want replan", plans[0].Outcome)
	}
	if sum := st.ShardStatsSummary(0); sum.Docs != 39 {
		t.Fatalf("stats track %d docs after remove, want 39", sum.Docs)
	}

	// Bootstrap swap: SetAll resets the statistics wholesale.
	var docs []*xmltree.Document
	for i := 100; i < 150; i++ {
		name, xml := testDoc(i)
		doc, err := xmltree.ParseString(name, xml)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if err := st.ReplaceAll(docs); err != nil {
		t.Fatal(err)
	}
	if plans = st.ExplainPlans(q, ch); plans[0].Outcome != engine.PlanReplan {
		t.Fatalf("after ReplaceAll: %v, want replan", plans[0].Outcome)
	}
	if sum := st.ShardStatsSummary(0); sum.Docs != 50 {
		t.Fatalf("stats track %d docs after bootstrap, want 50", sum.Docs)
	}

	// Searches after all that churn still agree with a forced strategy.
	auto, err := st.Run(context.Background(), q, query.Options{Auto: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := st.Run(context.Background(), q, query.Options{Strategy: cost.SetReduction}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := hitKeys(auto.Hits), hitKeys(forced.Hits)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-churn answers diverged: %v vs %v", got, want)
	}

	// Planner counters reflect the traffic above.
	m := st.Metrics()
	misses := m.Counter(obs.MPlannerPlanMisses).Value()
	hits := m.Counter(obs.MPlannerPlanHits).Value()
	replans := m.Counter(obs.MPlannerReplans).Value()
	if misses == 0 || hits == 0 || replans < 3 {
		t.Fatalf("planner counters: misses=%d hits=%d replans=%d", misses, hits, replans)
	}
}

// TestShardStatsMatchTermIndex cross-checks the planner's maintained
// per-term aggregates against the global term index's postings — two
// independently-maintained views of the same corpus.
func TestShardStatsMatchTermIndex(t *testing.T) {
	st, err := Open(Options{Shards: 4, MemoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	for i := 0; i < 120; i++ {
		name, xml := testDoc(i)
		if err := st.AddXML(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	// Churn a little so dead postings exist in the index.
	for i := 0; i < 20; i += 2 {
		name, _ := testDoc(i)
		if !st.Remove(name) {
			t.Fatalf("remove %s", name)
		}
	}
	for _, term := range []string{"alpha", "gamma", "xml", "fragment", "retrieval", "filler"} {
		for i := 0; i < st.Shards(); i++ {
			ts, _ := st.stats[i].TermStats(term)
			docs, nodes := st.gidx.Shard(i).TermPostingStats(term)
			if int(ts.Docs) != docs || int(ts.Postings) != nodes {
				t.Fatalf("shard %d term %q: stats docs=%d postings=%d, index docs=%d nodes=%d",
					i, term, ts.Docs, ts.Postings, docs, nodes)
			}
		}
	}
}
