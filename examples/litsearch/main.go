// Litsearch simulates the paper's motivating scenario at scale: a
// digital-library-style document-centric corpus (the kind INEX
// evaluates on) searched with keyword queries, where the two query
// terms land in different paragraphs of the same discussion and the
// right answer is the enclosing discussion fragment — something the
// smallest-subtree semantics misses.
//
//	go run ./examples/litsearch
package main

import (
	"context"
	"fmt"
	"log"

	xfrag "repro"
)

func main() {
	// A ~2000-node synthetic "journal issue" with two planted topic
	// terms scattered through it.
	doc, err := xfrag.GenerateDocument(xfrag.GeneratorConfig{
		Name: "journal-issue.xml", Seed: 2026,
		Sections: 10, MeanFanout: 5, Depth: 3,
		VocabSize: 2000, ZipfS: 1.2, ParLength: 20,
		Plant: map[string]int{"holography": 9, "interference": 11},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := xfrag.NewEngine(doc)
	fmt.Printf("corpus: %d nodes, %d distinct terms\n\n", doc.Len(), doc.Stats().Distinct())

	// Tight and loose retrieval: the β knob trades focus for recall.
	for _, beta := range []int{3, 6, 10} {
		spec := fmt.Sprintf("size<=%d", beta)
		ans, err := xfrag.QueryContext(context.Background(), eng, "holography interference", spec)
		if err != nil {
			log.Fatal(err)
		}
		groups := ans.Groups()
		fmt.Printf("β=%-2d → %2d fragments in %2d groups  (joins=%d, %v)\n",
			beta, ans.Len(), len(groups), ans.Result.Stats.Joins, ans.Result.Stats.Elapsed.Round(1000))
	}
	fmt.Println()

	// Show the best hits for the working β, grouped so overlapping
	// sub-fragments do not swamp the list (Section 5), and ranked by
	// TF·IDF keyword evidence (the §6 complement).
	ans, err := xfrag.QueryContext(context.Background(), eng, "holography interference", "size<=6,height<=2")
	if err != nil {
		log.Fatal(err)
	}
	groups := ans.Groups()
	fmt.Printf("query %v → %d target fragments:\n\n", ans.Query, len(groups))
	for i, g := range groups {
		if i == 3 {
			fmt.Printf("... and %d more groups\n", len(groups)-3)
			break
		}
		fmt.Printf("group %d: %v (%d overlapping sub-answers)\n", i+1, g.Target, len(g.Overlapping))
	}
	fmt.Println()

	ranker := xfrag.NewRanker(eng, []string{"holography", "interference"}, xfrag.DefaultRankWeights())
	fmt.Println("top-3 by relevance score:")
	for _, s := range ranker.Top(ans.Result.Answers, 3) {
		fmt.Printf("  %.3f  %v\n", s.Score, s.Fragment)
	}
	fmt.Println()

	// Contrast with the baseline.
	slca := eng.SLCA("holography interference")
	fmt.Printf("SLCA baseline returns %d single roots: %v\n", len(slca), slca)
	fmt.Println("each baseline answer is one node (or its whole subtree); the algebra returns")
	fmt.Println("self-contained fragments sized to the query, with overlaps grouped.")
}
