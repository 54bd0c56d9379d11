package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/docgen"
	"repro/internal/query"
	"repro/internal/store"
)

// coldStartDocs is the corpus size for the restart benchmark: large
// enough that replay-time tokenization dominates the WAL read, small
// enough for a 1x run in CI.
const coldStartDocs = 300

// coldStartCorpus generates the synthetic corpus once per process.
var coldStartCorpus = func() func(b *testing.B) []docAndXML {
	var docs []docAndXML
	return func(b *testing.B) []docAndXML {
		if docs != nil {
			return docs
		}
		for i := 0; i < coldStartDocs; i++ {
			// Text-heavy document-centric shape (the paper's target):
			// long paragraphs make tokenization the dominant replay cost,
			// which is exactly what posting reuse eliminates.
			d, err := docgen.Generate(docgen.Config{
				Name: fmt.Sprintf("doc-%04d.xml", i), Seed: int64(i + 1),
				Sections: 3, MeanFanout: 3, Depth: 2, VocabSize: 1200, ParLength: 40,
				Plant: map[string]int{"needleterm": 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			docs = append(docs, docAndXML{name: d.Name(), xml: d.XMLString()})
		}
		return docs
	}
}()

type docAndXML struct{ name, xml string }

// populate builds a durable store on dir (and, when idir is
// non-empty, a persistent term index) and closes it, leaving the
// on-disk state a restart starts from.
func populate(b *testing.B, dir, idir string) {
	b.Helper()
	st, err := store.Open(store.Options{Dir: dir, IndexDir: idir, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range coldStartCorpus(b) {
		if err := st.AddXML(d.name, d.xml); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// restart measures one cold start: open (synchronous WAL replay),
// prove the store serves a keyword query, and hand the closed store
// back outside the timed region.
func restart(b *testing.B, dir, idir string) {
	st, err := store.Open(store.Options{Dir: dir, IndexDir: idir, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.Parse("needleterm", "")
	if err != nil {
		b.Fatal(err)
	}
	r, err := st.Run(context.Background(), q, query.Options{Auto: true}, 1)
	if err != nil || len(r.Hits) == 0 {
		b.Fatalf("post-restart search: %v (%d hits)", err, len(r.Hits))
	}
	b.StopTimer()
	if err := st.Close(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}

// BenchmarkColdStart measures restart-to-ready — Open with synchronous
// WAL replay plus a first search — with and without the persistent
// term index. The WithIndex variant reconstitutes per-document indexes
// from persisted postings (index.FromPostings) instead of
// re-tokenizing every node of every document; the delta between the
// two sub-benchmarks is the paper-motivated cold-start win recorded in
// EXPERIMENTS.md.
func BenchmarkColdStart(b *testing.B) {
	b.Run("WithoutIndex", func(b *testing.B) {
		dir := b.TempDir()
		populate(b, dir, "")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restart(b, dir, "")
		}
	})
	b.Run("WithIndex", func(b *testing.B) {
		dir, idir := b.TempDir(), b.TempDir()
		populate(b, dir, idir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restart(b, dir, idir)
		}
	})
}
