// Paperexample walks the paper's running example end to end: the
// Figure 1 document, the query Q_{size≤3}{XQuery, optimization}, the
// Table 1 candidate trace, and the contrast with the smallest-subtree
// baseline that motivates the whole model (Section 1).
//
//	go run ./examples/paperexample
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	xfrag "repro"
)

func main() {
	doc := xfrag.FigureOneDocument()
	eng := xfrag.NewEngine(doc)

	fmt.Printf("Figure 1 document: %d nodes (n0..n%d)\n\n", doc.Len(), doc.Len()-1)

	// Keyword selections of Section 2.3.
	fmt.Println("seed fragment sets (keyword selections):")
	fmt.Println("  F1 = σ[keyword=XQuery](nodes(D))       =", seedSet(doc, "xquery"))
	fmt.Println("  F2 = σ[keyword=optimization](nodes(D)) =", seedSet(doc, "optimization"))
	fmt.Println()

	// The conventional answer the Introduction criticizes.
	fmt.Println("smallest-subtree (SLCA) answer:", eng.SLCA("XQuery optimization"),
		"→ just the paragraph, not self-contained")
	fmt.Println()

	// The algebraic answer.
	ans, err := xfrag.QueryContext(context.Background(), eng, "XQuery optimization", "size<=3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("algebraic answer set (%d fragments): ", ans.Len())
	var parts []string
	for _, f := range ans.Fragments() {
		parts = append(parts, f.String())
	}
	fmt.Println(strings.Join(parts, ", "))
	fmt.Println()

	fmt.Println("the fragment of interest (Figure 8b), as presented to a user:")
	fmt.Print(ans.Render())
	fmt.Println()

	// Show why the big fragment through the second section is pruned
	// before it is ever built (Section 4.3).
	f16 := xfrag.NodeFragment(doc, 16)
	f81 := xfrag.NodeFragment(doc, 81)
	wasteful := xfrag.Join(f16, f81)
	fmt.Printf("f16 ⋈ f81 = %v (size %d > 3)\n", wasteful, wasteful.Size())
	fmt.Println("push-down discards this join immediately; every join involving it is never computed")

	st := ans.Result.Stats
	fmt.Printf("\nevaluation: strategy=%v, joins=%d, candidates=%d\n",
		st.Strategy, st.Joins, st.Candidates)
}

func seedSet(doc *xfrag.Document, term string) *xfrag.FragmentSet {
	s := xfrag.NewFragmentSet()
	for _, id := range doc.NodesWithKeyword(term) {
		s.Add(xfrag.NodeFragment(doc, id))
	}
	return s
}
