package trace

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFileRecorderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.dslog")
	fr, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionWith(Options{Recorder: fr})
	id := s.Register(KindList, "List[int]", "", 0)
	const n = 5000
	for i := 0; i < n; i++ {
		s.Emit(id, OpInsert, i, i+1)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	events, err := ReadEventsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("replayed %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Index != i {
			t.Fatalf("event %d corrupted: %v", i, e)
		}
	}
}

// TestFileRecorderLogBytesPinned: a fixed Record/RecordBatch sequence —
// batches that overshoot the flush threshold included — must produce the
// same log bytes the []Event-buffered recorder wrote before it buffered
// columns.
func TestFileRecorderLogBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pinned.dslog")
	fr, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	events := corpusLikeEvents(6000)
	for _, e := range events[:700] {
		fr.Record(e)
	}
	for rest := events[700:]; len(rest) > 0; {
		n := min(333, len(rest))
		fr.RecordBatch(rest[:n])
		rest = rest[n:]
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "994b9fb7f24132796291c650d0c23651067e770cf668a4acb58378630af46353"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Fatalf("file log (%d bytes) digest %s, want %s", len(raw), got, want)
	}
}

func TestFileRecorderConcurrentProducers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.dslog")
	fr, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionWith(Options{Recorder: fr})
	id := s.Register(KindList, "List[int]", "", 0)
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Emit(id, OpRead, i, per)
			}
		}()
	}
	wg.Wait()
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEventsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*per {
		t.Fatalf("replayed %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Seq >= events[i].Seq {
			t.Fatal("replay not sequence-ordered")
		}
	}
}

func TestFileRecorderAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.dslog")
	fr, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	fr.Record(Event{Seq: 1, Op: OpRead})
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	fr.Record(Event{Seq: 2, Op: OpRead}) // dropped, no panic
	events, err := ReadEventsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}

func TestReadEventsFileErrors(t *testing.T) {
	if _, err := ReadEventsFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEventsFile(bad); err == nil {
		t.Error("corrupt file did not error")
	}
}

func TestCreateEventLogBadPath(t *testing.T) {
	if _, err := CreateEventLog(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("bad path did not error")
	}
}
