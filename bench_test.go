package xfrag

// One benchmark per experiment in DESIGN.md's per-experiment index.
// Run with:
//
//	go test -bench=. -benchmem
//
// Correctness of each artifact is asserted by the unit tests; these
// benchmarks measure the cost of regenerating it and of the projected
// performance study. EXPERIMENTS.md records representative output.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// BenchmarkTable1 regenerates Table 1: the full candidate trace of
// F1 ⋈* F2 for the running query under size ≤ 3.
func BenchmarkTable1(b *testing.B) {
	F1, F2, _ := bench.Figure1Seeds()
	pred := func(f core.Fragment) bool { return f.Size() <= 3 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.PowersetJoinTrace(F1, F2, pred)
		if err != nil || len(rows) != 11 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkFig1Parse measures building the Figure 1 document replica
// (tree construction, keyword extraction, LCA table).
func BenchmarkFig1Parse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := docgen.FigureOne()
		if d.Len() != 82 {
			b.Fatal("bad document")
		}
	}
}

// BenchmarkFig2Splits runs the keyword-split variations of Figure 2.
func BenchmarkFig2Splits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Figure2()
		if !strings.Contains(out, "algebra answers") {
			b.Fatal("unexpected output")
		}
	}
}

// BenchmarkFig3Joins measures the Figure 3 join examples: one
// fragment join, the pairwise join and the powerset join.
func BenchmarkFig3Joins(b *testing.B) {
	d := docgen.FigureThree()
	f1 := core.MustFragment(d, 4, 5)
	f2 := core.MustFragment(d, 7, 9)
	F1 := core.NewSet(f1, f2)
	F2 := core.NewSet(core.MustFragment(d, 6, 7), core.MustFragment(d, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Join(f1, f2)
		_ = core.PairwiseJoin(F1, F2)
		if _, err := core.PowersetJoin(F1, F2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Reduce measures the Figure 4 set reduction and the
// budgeted fixed point it licenses.
func BenchmarkFig4Reduce(b *testing.B) {
	d := docgen.FigureFour()
	F := core.NewSet(
		core.MustFragment(d, 1), core.MustFragment(d, 3), core.MustFragment(d, 5),
		core.MustFragment(d, 6), core.MustFragment(d, 7),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Reduce(F).Len() != 3 {
			b.Fatal("wrong reduction")
		}
		_ = core.FixedPoint(F)
	}
}

// BenchmarkFig5Plans measures plan construction and rendering for the
// Figure 5 evaluation trees.
func BenchmarkFig5Plans(b *testing.B) {
	q := query.MustNew([]string{"k1", "k2"}, filter.MaxSize(3))
	for i := 0; i < b.N; i++ {
		if q.PhysicalPlan(cost.PushDown).Render() == "" {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkFig6Filters measures the anti-monotonic filter battery of
// Figure 6 over the running example's fragments.
func BenchmarkFig6Filters(b *testing.B) {
	d := docgen.FigureOne()
	frags := []core.Fragment{
		core.MustFragment(d, 16, 17, 18),
		core.MustFragment(d, 16, 17),
		core.MustFragment(d, 0, 1, 14, 16, 17, 79, 80, 81),
	}
	filters := []filter.Filter{filter.MaxSize(3), filter.MaxHeight(2), filter.MaxWidth(4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frags {
			for _, p := range filters {
				_ = p.Apply(f)
			}
		}
	}
}

// BenchmarkFig7EqualDepth measures the non-anti-monotonic equal-depth
// filter of Figure 7.
func BenchmarkFig7EqualDepth(b *testing.B) {
	d := docgen.FigureOne()
	p := filter.EqualDepth("xquery", "optimization")
	f := core.MustFragment(d, 16, 17, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Apply(f)
	}
}

// BenchmarkFig8Query runs the full running example end to end
// (index lookup → push-down evaluation → answer set).
func BenchmarkFig8Query(b *testing.B) {
	x := index.New(docgen.FigureOne())
	q := query.MustNew([]string{"xquery", "optimization"}, filter.MaxSize(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
		if err != nil || res.Answers.Len() != 4 {
			b.Fatalf("answers=%v err=%v", res.Answers, err)
		}
	}
}

// BenchmarkThm1FixedPoint compares the Theorem 1 budgeted fixed point
// with the checking-based iteration on the Figure 4 set.
func BenchmarkThm1FixedPoint(b *testing.B) {
	d := docgen.FigureFour()
	F := core.NewSet(
		core.MustFragment(d, 1), core.MustFragment(d, 3), core.MustFragment(d, 5),
		core.MustFragment(d, 6), core.MustFragment(d, 7),
	)
	b.Run("budgeted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FixedPoint(F)
		}
	})
	b.Run("checking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FixedPointNaive(F)
		}
	})
}

// BenchmarkThm2Equivalence measures both sides of Theorem 2 on the
// running example's seed sets.
func BenchmarkThm2Equivalence(b *testing.B) {
	F1, F2, _ := bench.Figure1Seeds()
	b.Run("literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PowersetJoin(F1, F2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.PowersetJoinFixedPoint(F1, F2)
		}
	})
}

// BenchmarkThm3PushDown measures both sides of the Theorem 3
// equivalence σ(F1⋈F2) = σ(σF1⋈σF2) on planted synthetic seeds.
func BenchmarkThm3PushDown(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{
		Seed: 5, Sections: 5, MeanFanout: 4, Depth: 3, VocabSize: 200,
		Plant: map[string]int{"ta": 10, "tb": 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	F1 := core.NodeFragments(d, d.NodesWithKeyword("ta"))
	F2 := core.NodeFragments(d, d.NodesWithKeyword("tb"))
	pred := func(f core.Fragment) bool { return f.Size() <= 4 }
	b.Run("select-last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.PairwiseJoin(F1, F2).Select(pred)
		}
	})
	b.Run("pushed-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.PairwiseJoinFiltered(F1.Select(pred), F2.Select(pred), pred)
		}
	})
}

// BenchmarkStrategies is the perf-strategies experiment: every
// strategy across document sizes and keyword frequencies (β = 4).
func BenchmarkStrategies(b *testing.B) {
	for _, sections := range []int{2, 6} {
		for _, freq := range []int{4, 8} {
			d, err := docgen.Generate(docgen.Config{
				Seed: 7, Sections: sections, MeanFanout: 4, Depth: 3, VocabSize: 400,
				Plant: map[string]int{"querytermone": freq, "querytermtwo": freq},
			})
			if err != nil {
				b.Fatal(err)
			}
			x := index.New(d)
			q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(4))
			for _, s := range []cost.Strategy{cost.BruteForce, cost.Naive, cost.SetReduction, cost.PushDown} {
				name := fmt.Sprintf("nodes=%d/freq=%d/%v", d.Len(), freq, s)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := query.Evaluate(x, q, query.Options{Strategy: s, MaxFragments: 100000}); err != nil {
							b.Skipf("infeasible: %v", err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkReductionFactor is the perf-rf experiment: cost of ⊖ plus
// the budgeted iteration vs. the checking iteration at both RF
// extremes.
func BenchmarkReductionFactor(b *testing.B) {
	mkChain := func(depth int) *core.Set {
		bb := xmltree.NewBuilder("chain", "root", "")
		parent := xmltree.NodeID(0)
		F := core.NewSet()
		for i := 0; i < depth; i++ {
			parent = bb.AddNode(parent, "lvl", "")
		}
		d := bb.Build()
		for id := xmltree.NodeID(0); int(id) < d.Len(); id++ {
			F.Add(core.NodeFragment(d, id))
		}
		return F
	}
	mkStar := func(leaves int) *core.Set {
		bb := xmltree.NewBuilder("star", "root", "")
		for i := 0; i < leaves; i++ {
			bb.AddNode(0, "leaf", "")
		}
		d := bb.Build()
		F := core.NewSet()
		for id := xmltree.NodeID(1); int(id) < d.Len(); id++ {
			F.Add(core.NodeFragment(d, id))
		}
		return F
	}
	sets := map[string]*core.Set{
		"highRF-chain12": mkChain(11),
		"zeroRF-star12":  mkStar(12),
	}
	for name, F := range sets {
		b.Run(name+"/set-reduction", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.FixedPoint(F)
			}
		})
		b.Run(name+"/checking", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.FixedPointNaive(F)
			}
		})
	}
}

// BenchmarkSLCABaseline is the perf-slca experiment: baseline SLCA
// vs. the push-down algebra on the same synthetic workload.
func BenchmarkSLCABaseline(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{
		Seed: 7, Sections: 6, MeanFanout: 4, Depth: 3, VocabSize: 300,
		Plant: map[string]int{"querytermone": 8, "querytermtwo": 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	x := index.New(d)
	terms := []string{"querytermone", "querytermtwo"}
	q := query.MustNew(terms, filter.MaxSize(5))
	b.Run("slca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lca.SLCA(x, terms)
		}
	})
	b.Run("elca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lca.ELCA(x, terms)
		}
	})
	b.Run("algebra-pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelStore is the perf-rel experiment: native vs.
// relational-substrate execution of the same query.
func BenchmarkRelStore(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{
		Seed: 7, Sections: 6, MeanFanout: 4, Depth: 3, VocabSize: 300,
		Plant: map[string]int{"querytermone": 8, "querytermtwo": 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	x := index.New(d)
	q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(4))
	store := relstore.FromDocument(d)
	ex := relstore.NewExecutor(store)
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.Evaluate(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuild measures inverted-index construction, the only
// per-document preprocessing the system performs.
func BenchmarkIndexBuild(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{Seed: 7, Sections: 6, MeanFanout: 4, Depth: 3, VocabSize: 300})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = index.New(d)
	}
}

// BenchmarkJoin measures the primitive fragment join at several
// distances in a large document.
func BenchmarkJoin(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{Seed: 7, Sections: 10, MeanFanout: 5, Depth: 3, VocabSize: 100})
	if err != nil {
		b.Fatal(err)
	}
	near1 := core.NodeFragment(d, xmltree.NodeID(d.Len()/2))
	near2 := core.NodeFragment(d, xmltree.NodeID(d.Len()/2+1))
	far1 := core.NodeFragment(d, 1)
	far2 := core.NodeFragment(d, xmltree.NodeID(d.Len()-1))
	b.Run("near", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Join(near1, near2)
		}
	})
	b.Run("far", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Join(far1, far2)
		}
	})
}

// BenchmarkScale is the perf-scale experiment: push-down query cost
// as the document grows (the index localizes seeds; latency should
// track keyword frequency, not size).
func BenchmarkScale(b *testing.B) {
	for _, sections := range []int{3, 12, 24} {
		d, err := docgen.Generate(docgen.Config{
			Seed: 7, Sections: sections, MeanFanout: 5, Depth: 3, VocabSize: 1000,
			Plant: map[string]int{"querytermone": 8, "querytermtwo": 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		x := index.New(d)
		q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(5))
		b.Run(fmt.Sprintf("nodes=%d", d.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot measures persistence round trips.
func BenchmarkSnapshot(b *testing.B) {
	d, err := docgen.Generate(docgen.Config{Seed: 7, Sections: 12, MeanFanout: 5, Depth: 3, VocabSize: 500})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := snapshot.WriteDocument(&buf, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := snapshot.WriteDocument(&buf, d); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.ReadDocuments(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEffectiveness is the perf-effect experiment: evaluation of
// algebra and baselines against planted gold fragments.
func BenchmarkEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Effectiveness(7)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCollectionSearch measures multi-document fan-out with
// ranking and merging (sequential per-document work dominates; the
// fan-out is concurrent).
func BenchmarkCollectionSearch(b *testing.B) {
	c := collection.New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d, err := docgen.Generate(docgen.Config{
			Name: fmt.Sprintf("doc%d.xml", i), Seed: int64(i), Sections: 4,
			MeanFanout: 4, Depth: 3, VocabSize: 300,
			Plant: map[string]int{"xquery": 4, "optimization": 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SearchContext(context.Background(), c, "xquery optimization", "size<=4", WithStrategy(cost.PushDown))
		if err != nil || len(res.Hits) == 0 {
			b.Fatalf("hits=%d err=%v", len(res.Hits), err)
		}
	}
}

// storeBenchDoc mirrors the store tests' synthetic corpus: small
// document-centric trees with rotating terms.
func storeBenchDoc(i int) (string, string) {
	term := "alpha"
	if i%3 == 0 {
		term = "gamma"
	}
	return fmt.Sprintf("bench-doc-%05d", i), fmt.Sprintf(
		"<article><title>%s retrieval</title><sec>xml %s fragment %d</sec><sec>filler text %d</sec></article>",
		term, term, i, i)
}

// BenchmarkStoreIngest measures documents/sec through the async
// ingest pipeline (enqueue → parse → WAL append → shard index) at
// 1, 4 and 8 workers, durability on (WAL in a temp dir, no
// per-append fsync — the default production configuration).
func BenchmarkStoreIngest(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st, err := store.Open(store.Options{
				Dir:           b.TempDir(),
				Shards:        8,
				IngestWorkers: workers,
				QueueSize:     b.N + 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name, xml := storeBenchDoc(i)
				if _, err := st.Enqueue(name, xml); err != nil {
					b.Fatal(err)
				}
			}
			// Close drains the queue: the timed region covers the full
			// pipeline, not just enqueue.
			if err := st.Close(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st.Len() != b.N {
				b.Fatalf("ingested %d docs, want %d", st.Len(), b.N)
			}
		})
	}
}

// BenchmarkShardedSearch compares scatter-gather search on 1 vs. 8
// shards at 100 and 1000 documents (top-10 heap merge in both).
func BenchmarkShardedSearch(b *testing.B) {
	for _, docs := range []int{100, 1000} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("docs=%d/shards=%d", docs, shards), func(b *testing.B) {
				st, err := store.Open(store.Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close(context.Background())
				for i := 0; i < docs; i++ {
					name, xml := storeBenchDoc(i)
					if err := st.AddXML(name, xml); err != nil {
						b.Fatal(err)
					}
				}
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q, err := query.Parse("alpha retrieval", "")
					if err != nil {
						b.Fatal(err)
					}
					res, err := st.Run(ctx, q, query.Options{Auto: true}, 10)
					if err != nil {
						b.Fatal(err)
					}
					if res.Total == 0 {
						b.Fatal("no hits")
					}
				}
			})
		}
	}
}
