package snapshot

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collection"
	"repro/internal/docgen"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func TestDocumentRoundTrip(t *testing.T) {
	orig := docgen.FigureOne()
	var buf bytes.Buffer
	if err := WriteDocument(&buf, orig); err != nil {
		t.Fatal(err)
	}
	docs, err := ReadDocuments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d", len(docs))
	}
	got := docs[0]
	if got.Len() != orig.Len() || got.Name() != orig.Name() {
		t.Fatalf("shape changed: %d/%s", got.Len(), got.Name())
	}
	for id := xmltree.NodeID(0); int(id) < orig.Len(); id++ {
		if got.Tag(id) != orig.Tag(id) || got.Text(id) != orig.Text(id) ||
			got.Parent(id) != orig.Parent(id) || got.Depth(id) != orig.Depth(id) {
			t.Fatalf("node %v differs after round trip", id)
		}
	}
	// Derived structures are rebuilt: keywords still resolve.
	if len(got.NodesWithKeyword("xquery")) != 2 {
		t.Fatal("keywords lost in round trip")
	}
}

func TestCollectionRoundTripQueries(t *testing.T) {
	c := collection.New()
	if err := c.Add(docgen.FigureOne()); err != nil {
		t.Fatal(err)
	}
	gen, err := docgen.Generate(docgen.Config{
		Seed: 8, Sections: 3, MeanFanout: 3, Depth: 2, VocabSize: 60,
		Plant: map[string]int{"snapterm": 4, "shotterm": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(gen); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("collection size = %d", c2.Len())
	}
	// Identical query results before and after.
	for _, qspec := range []struct{ q, f string }{
		{"xquery optimization", "size<=3"},
		{"snapterm shotterm", "size<=5"},
	} {
		q, err := query.Parse(qspec.q, qspec.f)
		if err != nil {
			t.Fatal(err)
		}
		before, err := c.RunContext(context.Background(), q, query.Options{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		after, err := c2.RunContext(context.Background(), q, query.Options{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(before.Hits) != len(after.Hits) {
			t.Fatalf("query %q: %d hits before, %d after", qspec.q, len(before.Hits), len(after.Hits))
		}
		// Fragments belong to different Document instances after the
		// round trip; compare by document name and node IDs.
		for i := range before.Hits {
			b, a := before.Hits[i], after.Hits[i]
			if b.Document != a.Document {
				t.Fatalf("query %q hit %d: document %q vs %q", qspec.q, i, b.Document, a.Document)
			}
			bids, aids := b.Fragment.IDs(), a.Fragment.IDs()
			if len(bids) != len(aids) {
				t.Fatalf("query %q hit %d differs in size", qspec.q, i)
			}
			for j := range bids {
				if bids[j] != aids[j] {
					t.Fatalf("query %q hit %d differs at node %d", qspec.q, i, j)
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := SaveFile(path, docgen.FigureOne(), docgen.FigureThree()); err != nil {
		t.Fatal(err)
	}
	docs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].Len() != 82 || docs[1].Len() != 11 {
		t.Fatalf("loaded %d docs, sizes %v", len(docs), docs)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("definitely not gob"),
		"truncated": nil, // filled below
		"bad magic": nil,
	}
	// Truncated: valid header then cut off.
	var buf bytes.Buffer
	if err := WriteDocument(&buf, docgen.FigureThree()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cases["truncated"] = full[:len(full)/2]
	// Bad magic: a well-formed gob stream with the wrong header.
	var badBuf bytes.Buffer
	enc := gob.NewEncoder(&badBuf)
	if err := enc.Encode(header{Magic: "NOTASNAP", Version: version, Documents: 0}); err != nil {
		t.Fatal(err)
	}
	cases["bad magic"] = badBuf.Bytes()
	// Wrong version.
	var verBuf bytes.Buffer
	if err := gob.NewEncoder(&verBuf).Encode(header{Magic: magic, Version: 99, Documents: 0}); err != nil {
		t.Fatal(err)
	}
	cases["bad version"] = verBuf.Bytes()

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadDocuments(bytes.NewReader(data)); err == nil {
				t.Fatalf("ReadDocuments accepted %s input", name)
			}
		})
	}
}

// TestSaveFileOverwriteAndSyncDir: SaveFile replaces an existing
// snapshot atomically (the durability path fsyncs the temp file and
// the directory; behaviorally we can only assert the rename result),
// and SyncDir works on an ordinary directory.
func TestSaveFileOverwriteAndSyncDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.snap")
	d1, err := xmltree.ParseString("one", "<a><b>first</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, d1); err != nil {
		t.Fatal(err)
	}
	d2, err := xmltree.ParseString("two", "<a><b>second</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, d1, d2); err != nil {
		t.Fatal(err)
	}
	docs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].Name() != "one" || docs[1].Name() != "two" {
		t.Fatalf("overwritten snapshot holds %d docs", len(docs))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory should fail")
	}
}
