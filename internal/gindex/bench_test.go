package gindex

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
)

// postingSelectionOp is posting-first candidate selection — term-group
// intersection over the shard's posting lists plus the Dewey
// witness-pair filter bounds — on a 512-document memory shard. It runs
// on every search before any document is evaluated.
func postingSelectionOp(tb testing.TB) func() {
	idx, err := Open(Options{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sh := idx.Shard(0)
	for _, d := range testCorpus(tb, 512) {
		sh.Put(d, HashDoc(d))
	}
	q, err := query.Parse("alpha retrieval", "size<=3")
	if err != nil {
		tb.Fatal(err)
	}
	pp := cost.DefaultPostingPrune()
	return func() {
		c := sh.Candidates(q, pp)
		if !c.Consulted || len(c.Names) == 0 {
			tb.Fatalf("selection returned %d candidates (consulted=%v)", len(c.Names), c.Consulted)
		}
	}
}

// BenchmarkPostingSelection times the selection; its ns/op is not
// gated (wall time is gated only by benchmark/run.sh), and
// TestCandidatesAllocsFlat pins its allocations.
func BenchmarkPostingSelection(b *testing.B) {
	op := postingSelectionOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
