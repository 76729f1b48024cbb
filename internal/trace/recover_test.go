package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// recoverFixture saves a session log with a known shape: 3 instances, 100
// events across 2 frames (batch split forced by writing two batches).
func recoverFixture(t *testing.T) (string, *Session, []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "session.dslog")
	s := NewSession()
	s.Register(KindList, "[]int", "jobs", 0)
	s.Register(KindDictionary, "map[string]int", "index", 0)
	s.Register(KindQueue, "chan int", "work", 0)
	events := make([]Event, 100)
	for i := range events {
		events[i] = Event{
			Seq:      uint64(i + 1),
			Instance: InstanceID(i%3 + 1),
			Op:       OpInsert,
			Index:    i,
			Size:     i + 1,
			Thread:   ThreadID(i % 4),
		}
	}
	if err := saveEvents(path, s, events); err != nil {
		t.Fatal(err)
	}
	return path, s, events
}

func TestRecoverIntactLogMatchesStrictLoad(t *testing.T) {
	path, _, events := recoverFixture(t)
	strictSess, strictRuns, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	strictEvents := inflateRuns(strictRuns)
	sess, recoveredRuns, rec, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	recovered := inflateRuns(recoveredRuns)
	if !rec.Clean() {
		t.Fatalf("intact log reported unclean: %s", rec)
	}
	if rec.Events != len(events) || rec.Instances != 3 {
		t.Fatalf("recovery counted %d events, %d instances; want %d, 3", rec.Events, rec.Instances, len(events))
	}
	if len(recovered) != len(strictEvents) {
		t.Fatalf("recover got %d events, strict load got %d", len(recovered), len(strictEvents))
	}
	for i := range recovered {
		if recovered[i] != strictEvents[i] {
			t.Fatalf("event %d differs: %v vs %v", i, recovered[i], strictEvents[i])
		}
	}
	if len(sess.Instances()) != len(strictSess.Instances()) {
		t.Fatalf("registry size differs: %d vs %d", len(sess.Instances()), len(strictSess.Instances()))
	}
}

// TestRecoverTruncatedLog cuts the log at every byte boundary in its tail
// region and asserts the salvaging loader recovers every frame before the
// cut, reports a non-nil diagnostic, and never errors.
func TestRecoverTruncatedLog(t *testing.T) {
	path, _, _ := recoverFixture(t)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// v3 frame layout: 7 magic, kind byte, uvarint payload length, payload,
	// 4-byte CRC. 100 events < MaxBatch, so it is a single frame; decode its
	// length prefix to find the boundaries. Cut inside it, after it, and
	// inside the registry frames.
	plen, k := binary.Uvarint(whole[8:])
	if k <= 0 {
		t.Fatal("could not decode frame length prefix")
	}
	frame1End := 8 + k + int(plen) + 4
	cuts := []struct {
		name       string
		at         int
		wantEvents int
	}{
		{"mid first frame", 8 + k + int(plen)/2, 0},
		{"exactly after event frame", frame1End, 100},
		{"mid registry", frame1End + 3, 100},
		{"before end marker", len(whole) - 1, 100},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "cut.dslog")
			if err := os.WriteFile(p, whole[:cut.at], 0o644); err != nil {
				t.Fatal(err)
			}
			_, runs, rec, err := RecoverSessionColumns(p)
			if err != nil {
				t.Fatalf("recover errored on truncation: %v", err)
			}
			events := inflateRuns(runs)
			if rec == nil {
				t.Fatal("truncated log must yield a non-nil diagnostic")
			}
			if !rec.Truncated {
				t.Fatalf("cut at %d not reported truncated: %s", cut.at, rec)
			}
			if len(events) != cut.wantEvents {
				t.Fatalf("cut at %d recovered %d events, want %d", cut.at, len(events), cut.wantEvents)
			}
			if rec.DiscardedBytes < 0 {
				t.Fatalf("negative discarded bytes: %d", rec.DiscardedBytes)
			}
		})
	}
}

// TestRecoverSkipsCorruptFrame flips a payload byte in the first of two event
// frames: its checksum fails, the frame is skipped and counted, and the
// second frame plus the registry still load.
func TestRecoverSkipsCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.dslog")
	s := NewSession()
	s.Register(KindList, "[]int", "jobs", 0)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(lo, n int) []Event {
		out := make([]Event, n)
		for i := range out {
			out[i] = Event{Seq: uint64(lo + i), Instance: 1, Op: OpRead, Index: NoIndex, Size: 1}
		}
		return out
	}
	if err := writeEvents(sw, batch(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, batch(11, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteInstances(s.Instances()); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside frame 1's payload, past the count uvarint so the
	// skipped-event accounting still sees the declared batch size. v3
	// layout: 7 magic, kind byte, uvarint payload length, payload, CRC.
	_, k := binary.Uvarint(raw[8:])
	if k <= 0 {
		t.Fatal("could not decode frame length prefix")
	}
	raw[8+k+5] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sess, runs, rec, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	events := inflateRuns(runs)
	if rec.SkippedFrames != 1 || rec.SkippedEvents != 10 {
		t.Fatalf("skip accounting wrong: %+v", rec)
	}
	if rec.Clean() {
		t.Fatal("corrupt log reported clean")
	}
	if rec.Truncated {
		t.Fatalf("corruption misreported as truncation: %s", rec)
	}
	if len(events) != 10 {
		t.Fatalf("recovered %d events, want the 10 from the good frame", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(11+i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 11+i)
		}
	}
	if got := len(sess.Instances()); got != 1 {
		t.Fatalf("registry lost: %d instances, want 1", got)
	}
}

func TestRecoverUnreadableInputs(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := RecoverSessionColumns(filepath.Join(dir, "missing.dslog")); err == nil {
		t.Fatal("missing file must error")
	}
	garbage := filepath.Join(dir, "garbage.dslog")
	if err := os.WriteFile(garbage, []byte("not a dsspy stream at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RecoverSessionColumns(garbage); err == nil {
		t.Fatal("bad magic must error")
	}
	empty := filepath.Join(dir, "empty.dslog")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RecoverSessionColumns(empty); err == nil {
		t.Fatal("empty file must error")
	}
}

// TestRecoverEventLogSpillSemantics exercises the WAL shape the resilient
// recorder writes — events only, no registry, no end marker — through the
// salvaging loader its replay uses. Truncated is expected; the events
// survive.
func TestRecoverEventLogSpillSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dslog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]Event, 25)
	for i := range events {
		events[i] = Event{Seq: uint64(i + 1), Instance: 1, Op: OpWrite, Index: i, Size: 1}
	}
	if err := writeEvents(sw, events); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil { // no end marker: crash semantics
		t.Fatal(err)
	}
	f.Close()

	_, runs, rec, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	got := inflateRuns(runs)
	if !rec.Truncated {
		t.Fatal("marker-less WAL should report truncated")
	}
	if rec.Err != nil {
		t.Fatalf("EOF at a frame boundary is not damage, got %v", rec.Err)
	}
	if rec.DiscardedBytes != 0 {
		t.Fatalf("no bytes should be discarded, got %d", rec.DiscardedBytes)
	}
	if len(got) != len(events) {
		t.Fatalf("recovered %d events, want %d", len(got), len(events))
	}
}

// TestRecoverBoundsRegistryGap: a registry frame naming an ID far past
// anything the log carried is skipped and counted as damage, not restored
// with a placeholder for every ID below it; the genuine records around it
// still land.
func TestRecoverBoundsRegistryGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gap.dslog")
	if err := os.WriteFile(path, registryGapLogBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	s, runs, rec, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SkippedFrames != 1 || rec.Instances != 2 || rec.Events != 20 {
		t.Fatalf("recovery %s: want 1 skipped frame, 2 instances, 20 events", rec)
	}
	if rec.Clean() {
		t.Fatal("a skipped registry record must make the recovery unclean")
	}
	insts := s.Instances()
	if len(insts) != 2 || insts[0].Label != "jobs" || insts[1].Label != "names" {
		t.Fatalf("restored registry %+v, want the two genuine records", insts)
	}
	if got := len(inflateRuns(runs)); got != 20 {
		t.Fatalf("recovered %d events, want 20", got)
	}
}
