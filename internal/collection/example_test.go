package collection_test

import (
	"context"
	"fmt"

	"repro/internal/collection"
	"repro/internal/docgen"
	"repro/internal/query"
)

// Example demonstrates multi-document search with merged ranked hits.
func Example() {
	c := collection.New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		panic(err)
	}
	if err := c.AddXML("note.xml",
		`<note><p>an aside about xquery optimization</p></note>`); err != nil {
		panic(err)
	}
	q, err := query.Parse("xquery optimization", "size<=3")
	if err != nil {
		panic(err)
	}
	res, err := c.RunContext(context.Background(), q, query.Options{Auto: true})
	if err != nil {
		panic(err)
	}
	docs := map[string]int{}
	for _, h := range res.Hits {
		docs[h.Document]++
	}
	fmt.Println("hits:", len(res.Hits), "figure1:", docs["figure1.xml"], "note:", docs["note.xml"])
	// Output: hits: 5 figure1: 4 note: 1
}
