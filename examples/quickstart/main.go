// Quickstart: parse an XML document, run a keyword query with a size
// filter, and print the answer fragments.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	xfrag "repro"
)

const doc = `
<article>
  <title>Fragment Retrieval in Ten Minutes</title>
  <section>
    <title>Getting started</title>
    <par>Keyword search needs no schema knowledge.</par>
    <par>Answers are connected fragments, not whole documents.</par>
  </section>
  <section>
    <title>Filters</title>
    <par>A size filter keeps answers small and focused.</par>
    <par>Anti-monotonic filters make keyword search fast too.</par>
  </section>
</article>`

func main() {
	eng, err := xfrag.LoadString("quickstart.xml", doc)
	if err != nil {
		log.Fatal(err)
	}

	// Find fragments relating "keyword" and "filters": the terms
	// appear in different sections, so the algebra must stitch
	// fragments together across the tree.
	ans, err := xfrag.QueryContext(context.Background(), eng, "keyword filters", "size<=5")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query %v matched %d fragment(s):\n\n", ans.Query, ans.Len())
	for _, f := range ans.Fragments() {
		fmt.Println(f)
		if err := ans.WriteFragment(os.Stdout, f); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	// Compare with the conventional smallest-subtree semantics.
	fmt.Println("SLCA baseline roots:", eng.SLCA("keyword filters"))
}
