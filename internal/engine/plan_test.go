package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/stats"
)

// planStatsShard builds a statistics shard fed with n generated
// documents, the way a store shard would maintain it.
func planStatsShard(tb testing.TB, n int) *stats.Shard {
	tb.Helper()
	s := stats.NewShard()
	for i := 0; i < n; i++ {
		doc, err := docgen.Generate(docgen.Config{Seed: int64(i + 1), Sections: 3, MeanFanout: 3, Depth: 2, VocabSize: 20})
		if err != nil {
			tb.Fatal(err)
		}
		s.ObserveUpsert(doc, index.New(doc))
	}
	return s
}

func TestPlanCacheHitMissReplan(t *testing.T) {
	sh := planStatsShard(t, 4)
	pc := NewPlanCache(16, 2) // tiny drift limit so mutations re-plan promptly
	q := query.MustNew([]string{"section", "xquery"})
	ch := cost.DefaultChooser()

	p1, outcome := pc.Plan(q, ch, sh)
	if outcome != PlanMiss || p1 == nil {
		t.Fatalf("first call: %v %v, want miss+plan", p1, outcome)
	}
	if len(p1.SetStrategies) != 2 || len(p1.RFs) != 2 || len(p1.Order) != 2 {
		t.Fatalf("plan shape: %+v", p1)
	}
	p2, outcome := pc.Plan(q, ch, sh)
	if outcome != PlanHit || p2 != p1 {
		t.Fatalf("second call: %v, want hit with the same plan", outcome)
	}

	// Three mutations exceed the drift limit of 2: next call re-plans.
	doc, err := docgen.Generate(docgen.Config{Seed: 99, Sections: 3, MeanFanout: 3, Depth: 2, VocabSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	x := index.New(doc)
	sh.ObserveUpsert(doc, x)
	sh.ObserveRemove(doc, x)
	sh.ObserveUpsert(doc, x)
	p3, outcome := pc.Plan(q, ch, sh)
	if outcome != PlanReplan {
		t.Fatalf("after drift: %v, want replan", outcome)
	}
	if p3.Epoch <= p1.Epoch {
		t.Fatalf("re-planned epoch %d not past original %d", p3.Epoch, p1.Epoch)
	}
	if _, outcome = pc.Plan(q, ch, sh); outcome != PlanHit {
		t.Fatalf("after replan: %v, want hit", outcome)
	}
}

// TestPlanCacheHitZeroAlloc pins the acceptance criterion: the
// cached-plan auto path performs zero strategy-choice allocations. It
// also pins BenchmarkPlanChoose/cold at its count: compiling a plan
// from shard statistics into a new cache allocates 15 times, and one
// more fails.
func TestPlanCacheHitZeroAlloc(t *testing.T) {
	runtime.GC() // the first collection allocates its mark workers
	sh := planStatsShard(t, 3)
	pc := NewPlanCache(16, 0)
	q := query.MustNew([]string{"section", "xquery"})
	ch := cost.DefaultChooser()
	pc.Plan(q, ch, sh) // warm

	var sink *query.Plan
	allocs := testing.AllocsPerRun(200, func() {
		sink, _ = pc.Plan(q, ch, sh)
	})
	if allocs != 0 {
		t.Fatalf("cached plan lookup allocated %v allocs/run, want 0", allocs)
	}
	_ = sink

	cold := planColdOp(t, planStatsShard(t, 50))
	if allocs := testing.AllocsPerRun(100, cold); allocs != 15 {
		t.Errorf("cold plan allocated %v allocs/run, pinned at 15", allocs)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	sh := planStatsShard(t, 2)
	pc := NewPlanCache(16, 0)
	ch := cost.DefaultChooser()
	for i := 0; i < 40; i++ {
		pc.Plan(query.MustNew([]string{fmt.Sprintf("term%02d", i)}), ch, sh)
	}
	if pc.Len() != 16 {
		t.Fatalf("cache holds %d plans, want capacity 16", pc.Len())
	}
}

func TestPlanKeyDistinguishesShapes(t *testing.T) {
	keys := map[uint64]string{}
	for _, q := range []query.Query{
		query.MustNew([]string{"alpha"}),
		query.MustNew([]string{"beta"}),
		query.MustNew([]string{"alpha", "beta"}),
		query.MustNew([]string{"alpha|beta"}),
		query.MustNew([]string{"alpha"}, filter.MaxSize(3)),
		query.MustNew([]string{"alpha"}, filter.MaxSize(4)),
		{Terms: []string{"alpha"}}, // struct literal without groups
	} {
		k := PlanKey(q)
		if prev, dup := keys[k]; dup {
			t.Fatalf("PlanKey collision between %q and %q", prev, q.String())
		}
		keys[k] = q.String()
	}
	q := query.MustNew([]string{"alpha", "beta"})
	if PlanKey(q) != PlanKey(q) {
		t.Fatal("PlanKey not deterministic")
	}
}

// planColdOp compiles the benchmark query's plan from the shard's
// statistics into a new plan cache.
func planColdOp(tb testing.TB, sh *stats.Shard) func() {
	ch := cost.DefaultChooser()
	q := query.MustNew([]string{"section", "xquery", "optimization"})
	return func() {
		if _, outcome := NewPlanCache(16, 0).Plan(q, ch, sh); outcome != PlanMiss {
			tb.Fatalf("outcome %v, want miss", outcome)
		}
	}
}

// BenchmarkPlanChoose measures the planner's two paths: compiling a
// plan from shard statistics (cold) and serving it from the plan cache
// (cached, the per-query hot path, gated at zero allocations).
func BenchmarkPlanChoose(b *testing.B) {
	sh := planStatsShard(b, 50)
	ch := cost.DefaultChooser()
	q := query.MustNew([]string{"section", "xquery", "optimization"})

	b.Run("cold", func(b *testing.B) {
		cold := planColdOp(b, sh)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold()
		}
	})
	b.Run("cached", func(b *testing.B) {
		pc := NewPlanCache(16, 0)
		pc.Plan(q, ch, sh)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, outcome := pc.Plan(q, ch, sh); outcome != PlanHit {
				b.Fatalf("outcome %v, want hit", outcome)
			}
		}
	})
}
