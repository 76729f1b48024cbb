package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzHelloHandshake fuzzes the daemon handshake surface: a stream that may
// open with a hello frame, fed through both the strict decoder and the
// crash-recovery salvage path. Neither may panic; whatever the strict path
// decodes must survive salvage too (salvage only ever sees a prefix less, not
// more, of the data).
func FuzzHelloHandshake(f *testing.F) {
	// Seed with a real daemon-producer session: hello, events, instance
	// metadata, end marker — the exact byte sequence DialCollectorHello puts
	// on the wire.
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	if err := sw.WriteHello(Hello{Tenant: "alpha", Process: "host:1234", Run: "run-1"}); err != nil {
		f.Fatal(err)
	}
	if err := writeEvents(sw, []Event{
		{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 1},
		{Seq: 2, Instance: 1, Op: OpRead, Index: NoIndex, Size: 1},
		{Seq: 3, Instance: 2, Op: OpDelete, Index: 0, Size: 0, Thread: 2},
	}); err != nil {
		f.Fatal(err)
	}
	if err := sw.WriteInstances([]Instance{{ID: 1, TypeName: "List[int]", Site: Site{File: "main.go", Line: 1}}}); err != nil {
		f.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	// Truncations around the hello boundary — the mid-handshake cut case.
	for _, n := range []int{8, 9, 10, 12, 20} {
		if n < len(full) {
			f.Add(full[:n])
		}
	}
	// A hello with degenerate strings.
	var empty bytes.Buffer
	sw2, err := NewStreamWriter(&empty)
	if err != nil {
		f.Fatal(err)
	}
	if err := sw2.WriteHello(Hello{}); err != nil {
		f.Fatal(err)
	}
	if err := sw2.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// A bare hello kind byte with garbage behind it.
	f.Add([]byte("DSSPY3\n\x03\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict path.
		var strict []Event
		if sr, err := NewStreamReader(bytes.NewReader(data)); err == nil {
			strict, _ = readAll(sr)
		}

		// Salvage path over the same bytes on disk.
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.dslog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		batches, rec, err := recoverFile(path, nil)
		if err != nil {
			// Unreadable magic etc. — fine, as long as strict agreed.
			if len(strict) > 0 {
				t.Fatalf("strict decoded %d events but salvage failed: %v", len(strict), err)
			}
			return
		}
		events := inflateRuns(batches)
		if rec.Events != len(events) {
			t.Fatalf("recovery accounting: Events=%d but %d events returned", rec.Events, len(events))
		}
		if len(events) < len(strict) {
			t.Fatalf("salvage lost events the strict reader decoded: %d < %d", len(events), len(strict))
		}
	})
}
