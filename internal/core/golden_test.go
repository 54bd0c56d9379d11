package core

import (
	"context"
	"testing"

	"repro/internal/docgen"
	"repro/internal/obs"
)

// kernelGolden is what one evaluator-form operator call must produce:
// the result-set size and the five counter totals the loops in
// bounded.go own.
type kernelGolden struct {
	size                                                       int
	joins, memoHits, dedupProbes, filterPrunes, fixedPointIter uint64
}

// TestKernelCountersGolden pins every evaluator-form operator to the
// result size and counter totals recorded before the five loops of
// bounded.go were merged into two, on Figure 1's seed sets and on one
// seeded docgen document: cold and after ⊖, self-join and distinct
// operands, and a predicate that prunes. Joins are the paper's cost
// currency, so a restructured loop that changes any of these numbers
// has changed the algorithm, not just its shape. Memo hits count the
// commutative mirrors of the symmetric self pass.
func TestKernelCountersGolden(t *testing.T) {
	fig := docgen.FigureOne()
	gen, err := docgen.Generate(docgen.Config{
		Seed: 7, Sections: 3, MeanFanout: 3, Depth: 2,
		Plant: map[string]int{"alpha": 7, "beta": 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	figX := NodeFragments(fig, fig.NodesWithKeyword("xquery"))
	figO := NodeFragments(fig, fig.NodesWithKeyword("optimization"))
	genA := NodeFragments(gen, gen.NodesWithKeyword("alpha"))
	genB := NodeFragments(gen, gen.NodesWithKeyword("beta"))
	small := func(f Fragment) bool { return f.Size() <= 3 }
	medium := func(f Fragment) bool { return f.Size() <= 8 }
	// Every case runs twice. Opaque: the filters are bare predicates.
	// Bounds: the size limit is given as Bounds (with and without the
	// predicate restating it). Both must produce the same values.
	opaque := selections{Selection{Keep: small}, Selection{Keep: medium}}
	bounds := selections{Selection{Bounds: Bounds{Size: 3}, Keep: small}, Selection{Bounds: Bounds{Size: 8}}}
	const budget = 1 << 20
	ctx := context.Background()

	cases := []struct {
		name string
		// warm, when set, is reduced first (the Theorem 1 path's ⊖)
		// and the counters zeroed: no operator carries state into the
		// next, so the run must count what its cold twin counts.
		warm *Set
		run  func(c *obs.EvalCounters, s selections) (*Set, error)
		want kernelGolden
	}{
		{name: "fig/pairwise/distinct", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, figX, figO, Selection{}, budget)
		}, want: kernelGolden{6, 6, 0, 6, 0, 0}},
		{name: "fig/pairwise/self", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, figO, figO, Selection{}, budget)
		}, want: kernelGolden{6, 9, 3, 9, 0, 0}},
		{name: "fig/pairwise/filtered-distinct", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, figX, figO, s.small, budget)
		}, want: kernelGolden{4, 6, 0, 4, 2, 0}},
		{name: "fig/pairwise/filtered-self", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, figO, figO, s.small, budget)
		}, want: kernelGolden{4, 9, 3, 5, 4, 0}},
		{name: "fig/fixedpoint/naive", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FixedPointNaiveBounded(ctx, c, figO, budget)
		}, want: kernelGolden{6, 18, 3, 18, 0, 2}},
		{name: "fig/fixedpoint/theorem1", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FixedPointBounded(ctx, c, figO, budget)
		}, want: kernelGolden{6, 10, 3, 9, 0, 1}},
		{name: "fig/fixedpoint/filtered", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FilteredFixedPointBounded(ctx, c, figX, s.small, budget)
		}, want: kernelGolden{3, 6, 1, 6, 0, 2}},
		{name: "fig/reduce", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return ReduceState(c, Union(figX, figO)), nil
		}, want: kernelGolden{3, 11, 0, 0, 0, 0}},
		{name: "fig/powerset-trace", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			rows, err := MultiPowersetJoinTrace(ctx, c, []*Set{figX, figO}, small)
			out := NewSet()
			for _, r := range rows {
				out.Add(r.Result)
			}
			return out, err
		}, want: kernelGolden{7, 16, 0, 11, 0, 0}},

		{name: "gen/pairwise/distinct", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, genA, genB, Selection{}, budget)
		}, want: kernelGolden{42, 42, 0, 42, 0, 0}},
		{name: "gen/pairwise/self", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, genA, genA, Selection{}, budget)
		}, want: kernelGolden{28, 49, 21, 49, 0, 0}},
		{name: "gen/pairwise/self-warm", warm: genA, run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, genA, genA, Selection{}, budget)
		}, want: kernelGolden{28, 49, 21, 49, 0, 0}},
		{name: "gen/pairwise/filtered-distinct", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, genA, genB, s.small, budget)
		}, want: kernelGolden{10, 42, 0, 10, 32, 0}},
		{name: "gen/pairwise/filtered-self", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return PairwiseJoinBounded(ctx, c, genB, genB, s.small, budget)
		}, want: kernelGolden{8, 36, 15, 10, 26, 0}},
		{name: "gen/selfjoin/n=1", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return SelfJoinTimesBounded(ctx, c, genA, 1, budget)
		}, want: kernelGolden{7, 0, 0, 0, 0, 0}},
		{name: "gen/selfjoin/n=2", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return SelfJoinTimesBounded(ctx, c, genA, 2, budget)
		}, want: kernelGolden{28, 49, 21, 49, 0, 1}},
		{name: "gen/selfjoin/n=3", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return SelfJoinTimesBounded(ctx, c, genA, 3, budget)
		}, want: kernelGolden{51, 196, 21, 196, 0, 2}},
		{name: "gen/selfjoin/n=3-warm", warm: genA, run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return SelfJoinTimesBounded(ctx, c, genA, 3, budget)
		}, want: kernelGolden{51, 196, 21, 196, 0, 2}},
		{name: "gen/fixedpoint/naive", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FixedPointNaiveBounded(ctx, c, genA, budget)
		}, want: kernelGolden{73, 511, 21, 511, 0, 6}},
		{name: "gen/fixedpoint/naive-warm", warm: genA, run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FixedPointNaiveBounded(ctx, c, genA, budget)
		}, want: kernelGolden{73, 511, 21, 511, 0, 6}},
		{name: "gen/fixedpoint/theorem1", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FixedPointBounded(ctx, c, genA, budget)
		}, want: kernelGolden{73, 626, 21, 504, 0, 5}},
		{name: "gen/fixedpoint/filtered", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FilteredFixedPointBounded(ctx, c, genA, s.medium, budget)
		}, want: kernelGolden{44, 308, 21, 246, 62, 4}},
		{name: "gen/fixedpoint/filtered-warm", warm: genB, run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FilteredFixedPointBounded(ctx, c, genB, s.medium, budget)
		}, want: kernelGolden{33, 198, 15, 158, 40, 4}},
		{name: "gen/fixedpoint/filtered-input-pruned", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return FilteredFixedPointBounded(ctx, c, FixedPointNaive(genB), s.small, budget)
		}, want: kernelGolden{8, 64, 28, 20, 84, 1}},
		{name: "gen/reduce", run: func(c *obs.EvalCounters, s selections) (*Set, error) {
			return ReduceState(c, genA), nil
		}, want: kernelGolden{6, 122, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range []struct {
				name string
				sel  selections
			}{{"opaque", opaque}, {"bounds", bounds}} {
				var c obs.EvalCounters
				if tc.warm != nil {
					ReduceState(&c, tc.warm)
					c.Reset()
				}
				out, err := tc.run(&c, v.sel)
				if err != nil {
					t.Fatal(err)
				}
				s := c.Snapshot()
				got := kernelGolden{out.Len(), s.Joins, s.JoinMemoHits, s.DedupProbes, s.FilterPrunes, s.FixedPointIterations}
				if got != tc.want {
					t.Errorf("%s: got  %+v\nwant %+v", v.name, got, tc.want)
				}
			}
		})
	}
}

// selections are the two filters the golden cases run under.
type selections struct{ small, medium Selection }
