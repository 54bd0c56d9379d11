package store

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
)

func TestWALPayloadRoundTrip(t *testing.T) {
	cases := []walRecord{
		{op: walOpAdd, name: "a", xml: "<a>text</a>"},
		{op: walOpAdd, name: "", xml: ""},
		{op: walOpRemove, name: "doc-with-ütf8-naïme"},
		{op: walOpAdd, name: "n", xml: string(make([]byte, 4096))},
	}
	for _, want := range cases {
		got, err := decodeWALPayload(encodeWALPayload(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
	for _, bad := range [][]byte{nil, {walOpAdd}, {9, 0, 0, 0, 0, 0, 0, 0, 0}, {walOpAdd, 255, 255, 255, 255, 0}} {
		if _, err := decodeWALPayload(bad); err == nil {
			t.Fatalf("decoded malformed payload %v", bad)
		}
	}
}

// appendRaw writes one framed record straight to the file, bypassing
// the store — the crash simulator.
func appendRaw(t *testing.T, path string, payload []byte, sum uint32, truncateTo int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	buf = append(buf, payload...)
	if truncateTo >= 0 && truncateTo < len(buf) {
		buf = buf[:truncateTo] // simulate dying mid-append
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestWALCrashRecovery kills the log mid-append in three ways —
// truncated header, truncated payload, and flipped payload bits — and
// checks the checksummed replay keeps every record before the damage
// and drops the tail.
func TestWALCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated header", func(t *testing.T, path string) {
			p := encodeWALPayload(walRecord{op: walOpAdd, name: "tail", xml: "<a/>"})
			appendRaw(t, path, p, crc32.ChecksumIEEE(p), 5)
		}},
		{"truncated payload", func(t *testing.T, path string) {
			p := encodeWALPayload(walRecord{op: walOpAdd, name: "tail", xml: "<a>long enough body</a>"})
			appendRaw(t, path, p, crc32.ChecksumIEEE(p), 8+len(p)/2)
		}},
		{"corrupt checksum", func(t *testing.T, path string) {
			p := encodeWALPayload(walRecord{op: walOpAdd, name: "tail", xml: "<a/>"})
			p[len(p)-2] ^= 0xFF // flip a bit after summing
			appendRaw(t, path, p, crc32.ChecksumIEEE(append([]byte(nil), p[:len(p)-2]...)), -1)
		}},
		{"absurd length prefix", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := binary.LittleEndian.AppendUint32(nil, maxWALRecord+1)
			buf = binary.LittleEndian.AppendUint32(buf, 0)
			if _, err := f.Write(buf); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(Options{Dir: dir, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			const good = 5
			for i := 0; i < good; i++ {
				name, xml := testDoc(i)
				if err := st.AddXML(name, xml); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walShardFile(0))
			pre, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, walPath)

			st2, err := Open(Options{Dir: dir, Shards: 2})
			if err != nil {
				t.Fatalf("reopen with corrupt tail: %v", err)
			}
			defer st2.Close(context.Background())
			if got := st2.Len(); got != good {
				t.Fatalf("recovered %d docs, want %d", got, good)
			}
			if got := st2.Metrics().Counter(obs.MWALReplayed).Value(); got != good {
				t.Fatalf("replayed %d records, want %d", got, good)
			}
			if got := st2.Metrics().Counter(obs.MWALCorruptSkipped).Value(); got != 1 {
				t.Fatalf("corrupt-skipped %d, want 1", got)
			}
			// The corrupt tail must be physically truncated so new
			// appends don't land after garbage.
			post, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if post.Size() != pre.Size() {
				t.Fatalf("WAL size %d after recovery, want %d (tail truncated)", post.Size(), pre.Size())
			}
			// Appends after recovery replay cleanly on a third open.
			if err := st2.AddXML("post-crash", "<a>alpha post crash</a>"); err != nil {
				t.Fatal(err)
			}
			if err := st2.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			st3, err := Open(Options{Dir: dir, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close(context.Background())
			if got := st3.Len(); got != good+1 {
				t.Fatalf("third open: %d docs, want %d", got, good+1)
			}
			res, err := search(context.Background(), st3, "post crash", "", query.Options{Auto: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) == 0 {
				t.Fatal("post-crash document not searchable after recovery")
			}
		})
	}
}

// TestWALRemoveDurability: a logged removal replays.
func TestWALRemoveDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddXML("keep", "<a>alpha keep</a>"); err != nil {
		t.Fatal(err)
	}
	if err := st.AddXML("drop", "<a>alpha drop</a>"); err != nil {
		t.Fatal(err)
	}
	if !st.Remove("drop") {
		t.Fatal("remove failed")
	}
	if st.Remove("never-there") {
		t.Fatal("removed a document that does not exist")
	}
	if err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(context.Background())
	names := st2.Names()
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("names after replayed removal: %v, want [keep]", names)
	}
}
