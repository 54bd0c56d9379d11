// Structural shows keyword search combined with structural path
// filters (the integration the paper's related work pursues): confine
// answers to sections, require specific roots, and watch the
// anti-monotonic "within" pattern prune inside the evaluation.
//
//	go run ./examples/structural
package main

import (
	"context"
	"fmt"
	"log"

	xfrag "repro"
)

func main() {
	eng := xfrag.NewEngine(xfrag.FigureOneDocument())

	runs := []struct {
		filter string
		note   string
	}{
		{"size<=8", "no structural constraint: the cross-section joins appear"},
		{"size<=8,within=//section", "within=//section (anti-monotonic, pushed down): cross-section joins never built"},
		{"size<=8,root=//subsubsection", "root=//subsubsection (residual): keep subsubsection-rooted answers"},
		{"size<=8,contains=//par", "contains=//par (residual): require a paragraph node"},
	}
	for _, r := range runs {
		ans, err := xfrag.QueryContext(context.Background(), eng, "XQuery optimization", r.filter)
		if err != nil {
			log.Fatal(err)
		}
		st := ans.Result.Stats
		fmt.Printf("%-38s → %2d answers, %4d joins   (%s)\n",
			r.filter, ans.Len(), st.Joins, r.note)
	}
	fmt.Println()

	// Inspect one structurally confined answer with its witnesses.
	ans, err := xfrag.QueryContext(context.Background(), eng, "XQuery optimization", "size<=3,within=//section")
	if err != nil {
		log.Fatal(err)
	}
	target := ans.Targets()[0]
	fmt.Printf("target %v as XML:\n%s\n", target, xfrag.FragmentXML(target))
	fmt.Println("keyword witnesses:")
	for term, nodes := range ans.Witnesses(target) {
		fmt.Printf("  %-14s %v\n", term, nodes)
	}
}
