// Package bench regenerates the paper's tables and figures and runs
// the projected performance study (DESIGN.md's per-experiment index).
// Each experiment returns its rows as a formatted text table so the
// xfragbench CLI and EXPERIMENTS.md can present paper-vs-measured
// side by side; the root bench_test.go wraps the same computations in
// testing.B benchmarks.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// Figure1Seeds computes F1 = σ_{keyword=XQuery}(nodes(D)) and
// F2 = σ_{keyword=optimization}(nodes(D)) on the Figure 1 document.
func Figure1Seeds() (*core.Set, *core.Set, *xmltree.Document) {
	d := docgen.FigureOne()
	F1 := core.NodeFragments(d, d.NodesWithKeyword("xquery"))
	F2 := core.NodeFragments(d, d.NodesWithKeyword("optimization"))
	return F1, F2, d
}

// Table1 regenerates the paper's Table 1: every candidate fragment
// set of F1 ⋈* F2 for the running query {XQuery, optimization} with
// filter size ≤ 3, the fragment each produces, and the
// irrelevant/duplicate flags.
func Table1() string {
	F1, F2, _ := Figure1Seeds()
	pred := func(f core.Fragment) bool { return f.Size() <= 3 }
	rows, err := core.PowersetJoinTrace(F1, F2, pred)
	if err != nil {
		return "error: " + err.Error()
	}
	core.SortCandidatesPaperStyle(rows)
	var sb strings.Builder
	sb.WriteString("Table 1: Input Fragment Sets and their Corresponding Output Fragments\n")
	sb.WriteString("query Q[size<=3]{XQuery, optimization} against the Figure 1 document\n\n")
	fmt.Fprintf(&sb, "%-3s  %-28s  %-45s  %-10s  %-9s\n", "No.", "Fragment set to be joined", "Fragment generated after join", "Irrelevant", "Duplicate")
	for i, r := range rows {
		var inputs []string
		for _, f := range r.Inputs {
			inputs = append(inputs, "f"+strings.TrimPrefix(f.Root().String(), "n"))
		}
		irr, dup := "", ""
		if r.Filtered {
			irr = "x"
		}
		if r.Duplicate {
			dup = "x"
		}
		fmt.Fprintf(&sb, "%-3d  %-28s  %-45s  %-10s  %-9s\n",
			i+1, strings.Join(inputs, " ⋈ "), r.Result.String(), irr, dup)
	}
	answers := core.NewSet()
	for _, r := range rows {
		if !r.Duplicate && !r.Filtered {
			answers.Add(r.Result)
		}
	}
	fmt.Fprintf(&sb, "\nfinal answer set (%d fragments): %v\n", answers.Len(), answers)
	return sb.String()
}

// Figure3 regenerates the join examples of Figure 3(b)–(d) on the
// Figure 3(a) tree.
func Figure3() string {
	d := docgen.FigureThree()
	f1 := core.MustFragment(d, 4, 5)
	f2 := core.MustFragment(d, 7, 9)
	var sb strings.Builder
	sb.WriteString("Figure 3: fragment join operations on the Figure 3(a) tree\n\n")
	fmt.Fprintf(&sb, "(b) fragment join:       %v ⋈ %v = %v\n", f1, f2, core.Join(f1, f2))
	F1 := core.NewSet(f1, f2)
	F2 := core.NewSet(core.MustFragment(d, 6, 7), core.MustFragment(d, 1))
	fmt.Fprintf(&sb, "(c) pairwise join:       F1 ⋈ F2  = %v\n", core.PairwiseJoin(F1, F2))
	power, err := core.PowersetJoin(F1, F2)
	if err != nil {
		return "error: " + err.Error()
	}
	fmt.Fprintf(&sb, "(d) powerset join:       F1 ⋈* F2 = %v\n", power)
	fmt.Fprintf(&sb, "    |pairwise| = %d, |powerset| = %d (powerset produces more)\n",
		core.PairwiseJoin(F1, F2).Len(), power.Len())
	return sb.String()
}

// Figure4 regenerates the fragment-set-reduction example.
func Figure4() string {
	d := docgen.FigureFour()
	F := core.NewSet(
		core.MustFragment(d, 1), core.MustFragment(d, 3), core.MustFragment(d, 5),
		core.MustFragment(d, 6), core.MustFragment(d, 7),
	)
	var sb strings.Builder
	sb.WriteString("Figure 4: fragment set reduction\n\n")
	fmt.Fprintf(&sb, "F      = %v\n", F)
	fmt.Fprintf(&sb, "⊖(F)   = %v\n", core.Reduce(F))
	fmt.Fprintf(&sb, "|⊖(F)| = %d → fixed point after ((F⋈F)⋈F)\n", core.Reduce(F).Len())
	fmt.Fprintf(&sb, "F⁺     = %v\n", core.FixedPoint(F))
	fmt.Fprintf(&sb, "check: ⋈_3(F) == F⁺ (naive): %v\n",
		core.SelfJoinTimes(F, 3).Equal(core.FixedPointNaive(F)))
	return sb.String()
}

// Figure5 renders the query evaluation trees of Figure 5: the initial
// plan and the equivalent push-down plan.
func Figure5() string {
	q := query.MustNew([]string{"k1", "k2"}, filter.MaxSize(3))
	var sb strings.Builder
	sb.WriteString("Figure 5: query evaluation trees\n\n")
	sb.WriteString("(a) initial evaluation tree (selection last):\n")
	sb.WriteString(q.PhysicalPlan(cost.SetReduction).Render())
	sb.WriteString("\n(b) equivalent tree implementing the push-down strategy:\n")
	sb.WriteString(q.PhysicalPlan(cost.PushDown).Render())
	return sb.String()
}

// Figure6 demonstrates the anti-monotonic filters of Figure 6 on
// concrete fragments of the Figure 1 document.
func Figure6() string {
	d := docgen.FigureOne()
	var sb strings.Builder
	sb.WriteString("Figure 6: anti-monotonic filters\n\n")
	cases := []struct {
		frag core.Fragment
		desc string
	}{
		{core.MustFragment(d, 16, 17, 18), "target fragment"},
		{core.MustFragment(d, 16, 17), "sub-fragment"},
		{core.MustFragment(d, 17), "single node"},
		{core.MustFragment(d, 0, 1, 14, 16, 17, 79, 80, 81), "irrelevant 8-node fragment"},
	}
	filters := []filter.Filter{filter.MaxSize(3), filter.MaxHeight(2), filter.MaxWidth(4)}
	fmt.Fprintf(&sb, "%-38s  %-26s", "fragment", "description")
	for _, p := range filters {
		fmt.Fprintf(&sb, "  %-12s", p.Name)
	}
	sb.WriteString("\n")
	for _, c := range cases {
		fmt.Fprintf(&sb, "%-38s  %-26s", c.frag.String(), c.desc)
		for _, p := range filters {
			fmt.Fprintf(&sb, "  %-12v", p.Apply(c.frag))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\nanti-monotonicity: every filter true on a fragment stays true on its sub-fragments\n")
	return sb.String()
}

// Figure7 demonstrates the equal-depth filter failing
// anti-monotonicity: P(f) = true with P(f′) = false for f′ ⊆ f.
func Figure7() string {
	b := xmltree.NewBuilder("fig7", "root", "")
	l := b.AddNode(0, "left", "")
	b.AddNode(l, "p", "k1")
	r := b.AddNode(0, "right", "")
	b.AddNode(r, "p", "k2")
	b.AddNode(0, "deep", "k2")
	d := b.Build()
	p := filter.EqualDepth("k1", "k2")
	f := core.MustFragment(d, 0, 1, 2, 3, 4)
	fPrime := core.MustFragment(d, 0, 1, 2, 5)
	var sb strings.Builder
	sb.WriteString("Figure 7: a filter without the anti-monotonic property\n\n")
	fmt.Fprintf(&sb, "filter: %s\n", p.Name)
	fmt.Fprintf(&sb, "P(f)  where f  = %v (k1@depth2, k2@depth2): %v\n", f, p.Apply(f))
	fmt.Fprintf(&sb, "P(f′) where f′ = %v (k1@depth2, k2@depth1): %v\n", fPrime, p.Apply(fPrime))
	sb.WriteString("a super-fragment satisfies the filter while a sub-fragment does not → not anti-monotonic\n")
	return sb.String()
}

// Figure8 runs the full running example end to end and contrasts the
// algebra's answer with the SLCA baseline (the Introduction's
// motivating comparison).
func Figure8() string {
	d := docgen.FigureOne()
	x := index.New(d)
	q := query.MustNew([]string{"xquery", "optimization"}, filter.MaxSize(3))
	res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Figure 8 / Section 1: fragment of interest vs. smallest-subtree semantics\n\n")
	fmt.Fprintf(&sb, "query: %v\n", q)
	fmt.Fprintf(&sb, "SLCA baseline answer (smallest subtree):  %v\n", lca.SLCA(x, q.Terms))
	fmt.Fprintf(&sb, "ELCA baseline answer:                     %v\n", lca.ELCA(x, q.Terms))
	fmt.Fprintf(&sb, "algebraic answer set: %v\n", res.Answers)
	target := core.MustFragment(d, 16, 17, 18)
	fmt.Fprintf(&sb, "target fragment ⟨n16,n17,n18⟩ retrieved:  %v\n", res.Answers.Contains(target))
	irrelevant := core.MustFragment(d, 0, 1, 14, 16, 17, 18, 79, 80, 81)
	fmt.Fprintf(&sb, "irrelevant 9-node fragment excluded:      %v\n", !res.Answers.Contains(irrelevant))
	return sb.String()
}

// StrategyRow is one measurement of the perf-strategies experiment.
type StrategyRow struct {
	Nodes      int
	Frequency  int // planted occurrences per keyword
	Beta       int // size filter bound
	Strategy   cost.Strategy
	Answers    int
	Candidates int
	Joins      uint64
	Elapsed    time.Duration
	Err        string
}

// StrategySweepConfig parameterizes the perf-strategies experiment.
type StrategySweepConfig struct {
	// Sizes are the approximate document sizes (node counts are
	// determined by the generator; these choose section counts).
	Sections []int
	// Frequencies are planted keyword occurrence counts.
	Frequencies []int
	// Betas are size-filter bounds.
	Betas []int
	// Seed fixes generation.
	Seed int64
	// Strategies to measure; nil means all four.
	Strategies []cost.Strategy
}

// DefaultStrategySweep returns the sweep used by EXPERIMENTS.md.
func DefaultStrategySweep() StrategySweepConfig {
	return StrategySweepConfig{
		Sections:    []int{2, 6, 12},
		Frequencies: []int{3, 6, 9, 12},
		Betas:       []int{3, 5},
		Seed:        7,
	}
}

// sweepBudget caps intermediate sets during the sweep so that the
// combinatorial blow-up of the unfiltered strategies surfaces as an
// "infeasible" row (the paper's Section 3.1/4.1 point) instead of an
// unbounded run.
const sweepBudget = 20000

// StrategySweep measures every strategy across document sizes,
// keyword frequencies and filter bounds. Brute force rows that exceed
// its feasibility bound carry an Err note instead of numbers —
// faithfully reproducing Section 4.1's observation that it "will make
// little sense in practical applications".
func StrategySweep(cfg StrategySweepConfig) []StrategyRow {
	strategies := cfg.Strategies
	if strategies == nil {
		strategies = []cost.Strategy{cost.BruteForce, cost.Naive, cost.SetReduction, cost.PushDown}
	}
	var rows []StrategyRow
	for _, sections := range cfg.Sections {
		for _, freq := range cfg.Frequencies {
			doc, err := docgen.Generate(docgen.Config{
				Seed: cfg.Seed, Sections: sections, MeanFanout: 4, Depth: 3,
				VocabSize: 400,
				Plant:     map[string]int{"querytermone": freq, "querytermtwo": freq},
			})
			if err != nil {
				panic(err)
			}
			x := index.New(doc)
			for _, beta := range cfg.Betas {
				q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(beta))
				for _, s := range strategies {
					row := StrategyRow{
						Nodes: doc.Len(), Frequency: freq, Beta: beta, Strategy: s,
					}
					res, err := query.Evaluate(x, q, query.Options{Strategy: s, MaxFragments: sweepBudget})
					if err != nil {
						row.Err = "infeasible"
					} else {
						row.Answers = res.Stats.Answers
						row.Candidates = res.Stats.Candidates
						row.Joins = res.Stats.Joins
						row.Elapsed = res.Stats.Elapsed
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows
}

// FormatStrategyRows renders the sweep as a table.
func FormatStrategyRows(rows []StrategyRow) string {
	var sb strings.Builder
	sb.WriteString("perf-strategies: evaluation strategies across document size, keyword frequency and β\n\n")
	fmt.Fprintf(&sb, "%-7s  %-5s  %-4s  %-18s  %-8s  %-11s  %-10s  %-12s\n",
		"nodes", "freq", "β", "strategy", "answers", "candidates", "joins", "time")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-7d  %-5d  %-4d  %-18s  %s\n", r.Nodes, r.Frequency, r.Beta, r.Strategy, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-7d  %-5d  %-4d  %-18s  %-8d  %-11d  %-10d  %-12s\n",
			r.Nodes, r.Frequency, r.Beta, r.Strategy, r.Answers, r.Candidates, r.Joins, r.Elapsed.Round(time.Microsecond))
	}
	return sb.String()
}

// RFRow is one measurement of the perf-rf experiment.
type RFRow struct {
	SetSize        int
	RF             float64
	ReduceJoins    uint64
	BudgetedJoins  uint64
	CheckingJoins  uint64
	BudgetedTotal  uint64 // reduce + budgeted iteration
	CheckingBetter bool
}

// RFSweep measures, for fragment sets of varying reducibility, the
// join cost of Theorem 1's budgeted fixed point (including computing
// ⊖) against the checking-based iteration — the Section 5 trade-off
// whose crossover value v the paper leaves to experiments.
func RFSweep(seed int64) []RFRow {
	var rows []RFRow
	// Vary reducibility by mixing chain-path singletons (reducible)
	// with scattered leaf singletons (irreducible).
	for _, mix := range []struct{ chain, scattered int }{
		{0, 12}, {3, 9}, {6, 6}, {9, 3}, {12, 0}, {16, 4}, {4, 16},
	} {
		d := chainAndLeavesDoc(mix.chain + 2)
		F := core.NewSet()
		// Chain part: nodes along the single deep path.
		for i := 0; i < mix.chain; i++ {
			F.Add(core.NodeFragment(d, xmltree.NodeID(i+1)))
		}
		// Scattered part: leaves of the star section.
		for i := 0; i < mix.scattered; i++ {
			F.Add(core.NodeFragment(d, xmltree.NodeID(d.Len()-1-i)))
		}
		// Per-phase counters keep the measurement exact even when other
		// evaluations run in the same process (the old global-counter
		// deltas could absorb their joins).
		var cReduce, cBudgeted, cChecked obs.EvalCounters
		const noBudget = 1 << 30
		reduced := core.ReduceState(&cReduce, F)
		reduceJoins := cReduce.Joins()

		budgeted, err := core.SelfJoinTimesBounded(nil, &cBudgeted, F, max(reduced.Len(), 1), noBudget)
		if err != nil {
			panic("RFSweep: budgeted self join: " + err.Error())
		}
		budgetedJoins := cBudgeted.Joins()

		checked, err := core.FixedPointNaiveBounded(nil, &cChecked, F, noBudget)
		if err != nil {
			panic("RFSweep: checked fixed point: " + err.Error())
		}
		checkingJoins := cChecked.Joins()

		if !budgeted.Equal(checked) {
			panic("RFSweep: budgeted and checked fixed points disagree")
		}

		rows = append(rows, RFRow{
			SetSize:        F.Len(),
			RF:             core.ReductionFactor(F),
			ReduceJoins:    reduceJoins,
			BudgetedJoins:  budgetedJoins,
			CheckingJoins:  checkingJoins,
			BudgetedTotal:  reduceJoins + budgetedJoins,
			CheckingBetter: checkingJoins < reduceJoins+budgetedJoins,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].RF < rows[j].RF })
	return rows
}

// chainAndLeavesDoc builds a document with one deep chain and one
// star of leaves, the two reducibility extremes.
func chainAndLeavesDoc(depth int) *xmltree.Document {
	b := xmltree.NewBuilder("rf", "root", "")
	parent := xmltree.NodeID(0)
	for i := 0; i < depth; i++ {
		parent = b.AddNode(parent, "lvl", "")
	}
	star := b.AddNode(0, "star", "")
	for i := 0; i < 40; i++ {
		b.AddNode(star, "leaf", "")
	}
	return b.Build()
}

// FormatRFRows renders the RF sweep.
func FormatRFRows(rows []RFRow) string {
	var sb strings.Builder
	sb.WriteString("perf-rf: reduction factor vs. cost of the set-reduction technique (joins)\n\n")
	fmt.Fprintf(&sb, "%-5s  %-6s  %-12s  %-14s  %-15s  %-14s  %-10s\n",
		"|F|", "RF", "⊖ joins", "budgeted ⋈", "⊖+budgeted", "checking ⋈", "winner")
	for _, r := range rows {
		winner := "set-reduction"
		if r.CheckingBetter {
			winner = "checking"
		}
		fmt.Fprintf(&sb, "%-5d  %-6.2f  %-12d  %-14d  %-15d  %-14d  %-10s\n",
			r.SetSize, r.RF, r.ReduceJoins, r.BudgetedJoins, r.BudgetedTotal, r.CheckingJoins, winner)
	}
	sb.WriteString("\ncrossover v: the smallest RF at which ⊖+budgeted beats checking (Section 5)\n")
	return sb.String()
}

// ScaleRow is one measurement of the perf-scale experiment.
type ScaleRow struct {
	Nodes    int
	IndexMS  time.Duration // index build time
	QueryUS  time.Duration // push-down query latency
	Joins    uint64
	Answers  int
	Postings int
}

// ScaleSweep measures push-down query latency as documents grow from
// hundreds to ~10⁵ nodes (keyword frequency held constant), the
// "large XML tree" regime Section 4.3 targets. Only push-down is
// swept — the unfiltered strategies depend on keyword frequency, not
// document size, and are covered by perf-strategies.
func ScaleSweep(seed int64) []ScaleRow {
	var rows []ScaleRow
	for _, cfg := range []docgen.Config{
		{Seed: seed, Sections: 3, MeanFanout: 4, Depth: 2},
		{Seed: seed, Sections: 6, MeanFanout: 4, Depth: 3},
		{Seed: seed, Sections: 12, MeanFanout: 5, Depth: 3},
		{Seed: seed, Sections: 16, MeanFanout: 6, Depth: 4},
		{Seed: seed, Sections: 24, MeanFanout: 7, Depth: 4},
	} {
		cfg.VocabSize = 2000
		cfg.Plant = map[string]int{"querytermone": 8, "querytermtwo": 8}
		doc, err := docgen.Generate(cfg)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		x := index.New(doc)
		indexTime := time.Since(start)

		q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(5))
		// Warm once, then measure.
		if _, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown}); err != nil {
			panic(err)
		}
		res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
		if err != nil {
			panic(err)
		}
		rows = append(rows, ScaleRow{
			Nodes:    doc.Len(),
			IndexMS:  indexTime,
			QueryUS:  res.Stats.Elapsed,
			Joins:    res.Stats.Joins,
			Answers:  res.Stats.Answers,
			Postings: x.Postings(),
		})
	}
	return rows
}

// FormatScaleRows renders the scalability sweep.
func FormatScaleRows(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("perf-scale: push-down latency vs. document size (terms planted at fixed frequency, β=5)\n\n")
	fmt.Fprintf(&sb, "%-8s  %-10s  %-12s  %-12s  %-8s  %-8s\n",
		"nodes", "postings", "index build", "query", "joins", "answers")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8d  %-10d  %-12s  %-12s  %-8d  %-8d\n",
			r.Nodes, r.Postings, r.IndexMS.Round(time.Microsecond),
			r.QueryUS.Round(time.Microsecond), r.Joins, r.Answers)
	}
	sb.WriteString("\nquery cost tracks keyword frequency and β, not document size — the index\nlocalizes the seeds and push-down never materializes distant joins\n")
	return sb.String()
}

// SLCARow is one measurement of the perf-slca experiment.
type SLCARow struct {
	Nodes         int
	Terms         int
	SLCAAnswers   int
	SLCAElapsed   time.Duration
	AlgebraAns    int
	AlgebraTarget bool // does the algebra's answer include every SLCA subtree root?
	AlgebraTime   time.Duration
}

// SLCAComparison contrasts the SLCA baseline with the fragment
// algebra across synthetic documents: answer counts, containment and
// latency (the effectiveness-vs-efficiency trade-off of Section 6).
func SLCAComparison(seed int64) []SLCARow {
	var rows []SLCARow
	for _, sections := range []int{2, 6, 12} {
		doc, err := docgen.Generate(docgen.Config{
			Seed: seed, Sections: sections, MeanFanout: 4, Depth: 3, VocabSize: 300,
			Plant: map[string]int{"querytermone": 8, "querytermtwo": 8},
		})
		if err != nil {
			panic(err)
		}
		x := index.New(doc)
		terms := []string{"querytermone", "querytermtwo"}

		start := time.Now()
		slcas := lca.SLCA(x, terms)
		slcaTime := time.Since(start)

		q := query.MustNew(terms, filter.MaxSize(5))
		res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
		if err != nil {
			panic(err)
		}
		// Containment: every single-node SLCA answer that fits the
		// filter appears inside some algebra answer.
		contained := true
		for _, v := range slcas {
			found := false
			for _, f := range res.Answers.Fragments() {
				if f.Contains(v) {
					found = true
					break
				}
			}
			if !found && doc.SubtreeSize(v) <= 5 {
				contained = false
			}
		}
		rows = append(rows, SLCARow{
			Nodes: doc.Len(), Terms: len(terms),
			SLCAAnswers: len(slcas), SLCAElapsed: slcaTime,
			AlgebraAns: res.Answers.Len(), AlgebraTarget: contained,
			AlgebraTime: res.Stats.Elapsed,
		})
	}
	return rows
}

// FormatSLCARows renders the baseline comparison.
func FormatSLCARows(rows []SLCARow) string {
	var sb strings.Builder
	sb.WriteString("perf-slca: smallest-subtree baseline vs. fragment algebra (β=5)\n\n")
	fmt.Fprintf(&sb, "%-7s  %-12s  %-12s  %-14s  %-14s  %-10s\n",
		"nodes", "slca answers", "slca time", "algebra answers", "algebra time", "covers-slca")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-7d  %-12d  %-12s  %-14d  %-14s  %-10v\n",
			r.Nodes, r.SLCAAnswers, r.SLCAElapsed.Round(time.Microsecond),
			r.AlgebraAns, r.AlgebraTime.Round(time.Microsecond), r.AlgebraTarget)
	}
	return sb.String()
}

// RelRow is one measurement of the perf-rel experiment.
type RelRow struct {
	Nodes       int
	NativeTime  time.Duration
	RelTime     time.Duration
	Agree       bool
	AnswerCount int
}

// RelComparison runs identical queries through the native engine and
// the relational-substrate executor.
func RelComparison(seed int64) []RelRow {
	var rows []RelRow
	for _, sections := range []int{2, 6, 12} {
		doc, err := docgen.Generate(docgen.Config{
			Seed: seed, Sections: sections, MeanFanout: 4, Depth: 3, VocabSize: 300,
			Plant: map[string]int{"querytermone": 8, "querytermtwo": 8},
		})
		if err != nil {
			panic(err)
		}
		x := index.New(doc)
		q := query.MustNew([]string{"querytermone", "querytermtwo"}, filter.MaxSize(4))

		start := time.Now()
		native, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
		if err != nil {
			panic(err)
		}
		nativeTime := time.Since(start)

		ex := relstore.NewExecutor(relstore.FromDocument(doc))
		start = time.Now()
		rel, err := ex.Evaluate(q)
		if err != nil {
			panic(err)
		}
		relTime := time.Since(start)

		rows = append(rows, RelRow{
			Nodes: doc.Len(), NativeTime: nativeTime, RelTime: relTime,
			Agree: rel.Equal(native.Answers), AnswerCount: native.Answers.Len(),
		})
	}
	return rows
}

// FormatRelRows renders the relational comparison.
func FormatRelRows(rows []RelRow) string {
	var sb strings.Builder
	sb.WriteString("perf-rel: native in-memory executor vs. relational-substrate executor\n\n")
	fmt.Fprintf(&sb, "%-7s  %-9s  %-13s  %-11s  %-6s\n", "nodes", "answers", "native time", "rel time", "agree")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-7d  %-9d  %-13s  %-11s  %-6v\n",
			r.Nodes, r.AnswerCount, r.NativeTime.Round(time.Microsecond), r.RelTime.Round(time.Microsecond), r.Agree)
	}
	return sb.String()
}

// Figure2 exercises the keyword-split variations of Figure 2: the
// algebra finds an answer no matter how the two keywords distribute
// over the target subtree, where SLCA returns only the single deepest
// node(s).
func Figure2() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: keyword-split variations across a target subtree\n\n")
	// One fixed shape: section with title and two paragraphs; the two
	// keywords split in each of the figure's ways.
	splits := []struct {
		desc           string
		t1, t2, t3, t4 string // texts of title, par1, par2, par3
	}{
		{"both terms in one node", "plain", "k1 k2", "plain", "plain"},
		{"terms in two siblings", "plain", "k1", "k2", "plain"},
		{"term in parent, term in child", "k1", "k2", "plain", "plain"},
		{"terms in distant cousins", "plain", "k1", "plain", "k2"},
		{"one term twice, other once", "k1", "k1", "k2", "plain"},
	}
	for _, s := range splits {
		b := xmltree.NewBuilder("fig2", "article", "")
		sec := b.AddNode(0, "section", "")
		b.AddNode(sec, "title", s.t1)
		b.AddNode(sec, "par", s.t2)
		b.AddNode(sec, "par", s.t3)
		sec2 := b.AddNode(0, "section", "")
		b.AddNode(sec2, "par", s.t4)
		d := b.Build()
		x := index.New(d)
		q := query.MustNew([]string{"k1", "k2"}, filter.MaxSize(6))
		res, err := query.Evaluate(x, q, query.Options{Strategy: cost.PushDown})
		if err != nil {
			return "error: " + err.Error()
		}
		fmt.Fprintf(&sb, "%-32s  algebra answers: %d  smallest: %v  slca: %v\n",
			s.desc, res.Answers.Len(), smallestAnswer(res.Answers), lca.SLCA(x, q.Terms))
	}
	sb.WriteString("\nthe algebra adapts the answer fragment to the split; SLCA always returns one node\n")
	return sb.String()
}

func smallestAnswer(s *core.Set) string {
	sorted := s.Sorted()
	if len(sorted) == 0 {
		return "none"
	}
	return sorted[0].String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
