package query

import (
	"sync"
	"testing"

	"repro/internal/filter"
)

// TestConcurrentEvaluationsIndependentStats runs the same query many
// times in parallel and checks that every evaluation reports exactly
// the join count of a sequential baseline run. Under the old
// process-global counter, concurrent evaluations bled joins into each
// other's deltas; per-evaluation counters make the counts exact. Run
// with -race to also verify the counting paths are data-race free.
func TestConcurrentEvaluationsIndependentStats(t *testing.T) {
	x := figure1Index(t)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))

	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			baseline, err := Evaluate(x, q, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if baseline.Stats.Joins == 0 {
				t.Fatal("baseline did no joins; test is vacuous")
			}

			const n = 16
			var wg sync.WaitGroup
			results := make([]Result, n)
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = Evaluate(x, q, Options{Strategy: strat})
				}(i)
			}
			wg.Wait()

			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("evaluation %d: %v", i, errs[i])
				}
				if got := results[i].Stats.Joins; got != baseline.Stats.Joins {
					t.Errorf("evaluation %d joins = %d, want %d (independent of concurrency)", i, got, baseline.Stats.Joins)
				}
				if got := results[i].Stats.Ops.Joins; got != results[i].Stats.Joins {
					t.Errorf("evaluation %d Ops.Joins = %d != Stats.Joins %d", i, got, results[i].Stats.Joins)
				}
				if !results[i].Answers.Equal(baseline.Answers) {
					t.Errorf("evaluation %d answers differ from baseline", i)
				}
			}
		})
	}
}

// TestTraceSpansAllStrategies checks that tracing produces a span tree
// with cardinalities for every strategy, and that tracing off keeps
// Result.Trace nil.
func TestTraceSpansAllStrategies(t *testing.T) {
	x := figure1Index(t)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))

	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Evaluate(x, q, Options{Strategy: strat, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatal("Trace = nil with Options.Trace set")
			}
			if tr.Op != "evaluate" || tr.Detail != strat.String() {
				t.Fatalf("root span = %s [%s], want evaluate [%s]", tr.Op, tr.Detail, strat)
			}
			if tr.Out != res.Stats.Answers {
				t.Fatalf("root out = %d, want %d", tr.Out, res.Stats.Answers)
			}
			// Two seed spans plus at least one operator span and the
			// final select.
			if len(tr.Children) < 4 {
				t.Fatalf("children = %d (%s), want >= 4", len(tr.Children), tr.Render())
			}
			seeds := 0
			sel := false
			for _, c := range tr.Children {
				switch c.Op {
				case "seed":
					seeds++
				case "select":
					sel = true
					// Candidates counts materialized candidates (pre-dedup
					// under brute force), so the select input is at most that
					// and at least the answer count.
					if len(c.In) != 1 || c.In[0] > res.Stats.Candidates || c.In[0] < res.Stats.Answers {
						t.Fatalf("select in = %v, want within [%d, %d]", c.In, res.Stats.Answers, res.Stats.Candidates)
					}
				}
			}
			if seeds != 2 || !sel {
				t.Fatalf("span tree missing seeds/select:\n%s", tr.Render())
			}

			off, err := Evaluate(x, q, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if off.Trace != nil {
				t.Fatal("Trace non-nil without Options.Trace")
			}
		})
	}
}
