// Optimizer demonstrates the algebraic optimizations of Sections 3–5:
// the four evaluation strategies on one workload, their plan trees
// (Figure 5), the reduction factor RF, and the cost-based strategy
// choice the paper sketches as future work.
//
//	go run ./examples/optimizer
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	xfrag "repro"
	"repro/internal/core"
)

func main() {
	doc, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{
		Name: "optimizer-demo.xml", Seed: 99,
		Sections: 6, MeanFanout: 4, Depth: 3, VocabSize: 500,
		Plant: map[string]int{"alpha": 8, "beta": 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := xfrag.NewEngine(doc)
	q, err := xfrag.ParseQuery("alpha beta", "size<=4")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("document: %d nodes; query: %v\n\n", doc.Len(), q)

	fmt.Println("logical plan (Section 2.3):")
	fmt.Print(q.LogicalPlan().Render())
	fmt.Println("\nphysical plan under push-down (Figure 5b):")
	fmt.Print(q.PhysicalPlan(xfrag.PushDown).Render())
	fmt.Println()

	// Run every strategy; the answer sets are identical, the work is not.
	for _, s := range []xfrag.Strategy{xfrag.BruteForce, xfrag.Naive, xfrag.SetReduction, xfrag.PushDown} {
		ans, err := xfrag.RunContext(context.Background(), eng, q, xfrag.WithStrategy(s))
		if errors.Is(err, core.ErrBudgetExceeded) {
			fmt.Printf("%-18v infeasible (budget exceeded) — Section 3.1's point about the naive powerset join\n", s)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		st := ans.Result.Stats
		fmt.Printf("%-18v answers=%-3d candidates=%-6d joins=%-8d %v\n",
			s, st.Answers, st.Candidates, st.Joins, st.Elapsed.Round(1000))
	}
	fmt.Println()

	// Reduction factors of the two seed sets (Section 5): how much ⊖
	// shrinks them decides whether Theorem 1's budgeted iteration is
	// worth the cost of computing it.
	for _, term := range q.Terms {
		seeds := xfrag.NewFragmentSet()
		for _, id := range doc.NodesWithKeyword(term) {
			seeds.Add(xfrag.NodeFragment(doc, id))
		}
		fmt.Printf("RF(σ[keyword=%s]) = %.2f  (|F|=%d, |⊖(F)|=%d)\n",
			term, xfrag.ReductionFactor(seeds), seeds.Len(), xfrag.Reduce(seeds).Len())
	}
	fmt.Println()

	// Auto mode picks for you: with an anti-monotonic filter it is
	// always push-down (Theorem 3 guarantees no loss).
	ans, err := xfrag.RunContext(context.Background(), eng, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto mode chose: %v (answers=%d)\n", ans.Result.Stats.Strategy, ans.Len())
}
