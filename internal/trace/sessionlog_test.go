package trace

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSessionLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.dslog")
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec, CaptureSites: true})
	id1 := s.Register(KindList, "List[int]", "population", 0)
	id2 := s.Register(KindArray, "Array[float64]", "", 0)
	for i := 0; i < 200; i++ {
		s.Emit(id1, OpInsert, i, i+1)
	}
	s.Emit(id2, OpWrite, 0, 4)

	if err := saveEvents(path, s, rec.Events()); err != nil {
		t.Fatal(err)
	}
	loaded, runs, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	events := inflateRuns(runs)
	if got := loaded.NumInstances(); got != 2 {
		t.Fatalf("replayed registry has %d instances", got)
	}
	inst1, ok := loaded.Instance(id1)
	if !ok || inst1.Kind != KindList || inst1.TypeName != "List[int]" || inst1.Label != "population" {
		t.Errorf("instance 1 = %+v", inst1)
	}
	orig, _ := s.Instance(id1)
	if inst1.Site != orig.Site {
		t.Errorf("site lost: %+v vs %+v", inst1.Site, orig.Site)
	}
	if len(events) != 201 {
		t.Fatalf("events = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Seq >= events[i].Seq {
			t.Fatal("events not ordered")
		}
	}
	if events[200].Instance != id2 || events[200].Op != OpWrite {
		t.Errorf("last event = %v", events[200])
	}
}

func TestSessionLogEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dslog")
	s := NewSession()
	if err := saveEvents(path, s, nil); err != nil {
		t.Fatal(err)
	}
	loaded, runs, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	events := inflateRuns(runs)
	if loaded.NumInstances() != 0 || len(events) != 0 {
		t.Errorf("empty log: %d instances, %d events", loaded.NumInstances(), len(events))
	}
}

func TestSessionLogErrors(t *testing.T) {
	if _, _, err := LoadSessionColumns(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.dslog")
	if err := os.WriteFile(bad, []byte("DSSPY1\n\x42"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSessionColumns(bad); err == nil {
		t.Error("unknown frame accepted")
	}
}

func TestSessionLogLongStrings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.dslog")
	s := NewSession()
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'x'
	}
	s.Register(KindList, string(long), "", 0)
	if err := saveEvents(path, s, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := loaded.Instance(1)
	if len(inst.TypeName) != len(long) {
		t.Errorf("long string round-tripped to %d bytes, want %d", len(inst.TypeName), len(long))
	}
}
