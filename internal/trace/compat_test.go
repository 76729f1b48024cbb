package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Version-1 writer, kept test-only: the real writer emits version 3, and this
// replica of the retired v1 encoder (uint16 string prefixes, no frame
// checksums) generates the compatibility fixture and any ad-hoc v1 stream a
// test needs. Layout must never change — it documents the frozen format.

func writeV1Events(w *bufio.Writer, events []Event) error {
	buf := make([]byte, eventSize)
	for len(events) > 0 {
		n := len(events)
		if n > MaxBatch {
			n = MaxBatch
		}
		var hdr [5]byte
		hdr[0] = frameEvents
		binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		for _, e := range events[:n] {
			putEvent(buf, e)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		events = events[n:]
	}
	return nil
}

func writeV1String(w *bufio.Writer, s string) error {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF] // the v1 truncation bug, faithfully reproduced
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func writeV1SessionLog(w io.Writer, events []Event, instances []Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(wireMagicV1); err != nil {
		return err
	}
	if err := writeV1Events(bw, events); err != nil {
		return err
	}
	for _, inst := range instances {
		if err := bw.WriteByte(frameInstance); err != nil {
			return err
		}
		var hdr [9]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(inst.ID))
		hdr[4] = byte(inst.Kind)
		binary.LittleEndian.PutUint32(hdr[5:], uint32(inst.Site.Line))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		for _, s := range []string{inst.TypeName, inst.Label, inst.Site.File, inst.Site.Function} {
			if err := writeV1String(bw, s); err != nil {
				return err
			}
		}
	}
	if err := bw.WriteByte(frameEnd); err != nil {
		return err
	}
	return bw.Flush()
}

// v1FixtureContents is the deterministic session the checked-in fixture
// testdata/v1_session.dslog encodes.
func v1FixtureContents() ([]Event, []Instance) {
	events := make([]Event, 64)
	for i := range events {
		events[i] = Event{
			Seq:      uint64(i + 1),
			Instance: InstanceID(i%2 + 1),
			Op:       Op(1 + i%4), // Read, Write, Insert, Delete
			Index:    i,
			Size:     i / 2,
			Thread:   ThreadID(i % 3),
		}
	}
	instances := []Instance{
		{ID: 1, Kind: KindList, TypeName: "[]float64", Label: "samples",
			Site: Site{File: "cmd/app/main.go", Function: "main.run", Line: 42}},
		{ID: 2, Kind: KindDictionary, TypeName: "map[string][]int", Label: "buckets",
			Site: Site{File: "internal/agg/agg.go", Function: "agg.New", Line: 17}},
	}
	return events, instances
}

const v1FixturePath = "testdata/v1_session.dslog"

// TestV1SessionLogCompat loads the checked-in pre-checksum fixture with both
// the strict and the salvaging loader and verifies the decoded session is
// byte-identical to what the v1 writer put in: the format bump must never
// strand old logs.
func TestV1SessionLogCompat(t *testing.T) {
	wantEvents, wantInstances := v1FixtureContents()

	if os.Getenv("DSSPY_WRITE_V1_FIXTURE") != "" {
		f, err := os.Create(v1FixturePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeV1SessionLog(f, wantEvents, wantInstances); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The fixture on disk must stay exactly what the frozen v1 encoder
	// produces — a drift here means the fixture was regenerated by accident.
	var golden bytes.Buffer
	if err := writeV1SessionLog(&golden, wantEvents, wantInstances); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with DSSPY_WRITE_V1_FIXTURE=1): %v", err)
	}
	if !bytes.Equal(onDisk, golden.Bytes()) {
		t.Fatalf("fixture drifted from the frozen v1 encoding (%d vs %d bytes)", len(onDisk), golden.Len())
	}

	check := func(t *testing.T, sess *Session, events []Event) {
		t.Helper()
		if len(events) != len(wantEvents) {
			t.Fatalf("decoded %d events, want %d", len(events), len(wantEvents))
		}
		for i := range events {
			if events[i] != wantEvents[i] {
				t.Fatalf("event %d: got %+v, want %+v", i, events[i], wantEvents[i])
			}
		}
		got := sess.Instances()
		if len(got) != len(wantInstances) {
			t.Fatalf("decoded %d instances, want %d", len(got), len(wantInstances))
		}
		for i := range got {
			if got[i] != wantInstances[i] {
				t.Fatalf("instance %d: got %+v, want %+v", i, got[i], wantInstances[i])
			}
		}
	}

	sess, runs, err := LoadSessionColumns(v1FixturePath)
	if err != nil {
		t.Fatalf("strict load of v1 fixture: %v", err)
	}
	events := inflateRuns(runs)
	check(t, sess, events)

	rSess, rRuns, rec, err := RecoverSessionColumns(v1FixturePath)
	if err != nil {
		t.Fatalf("salvaging load of v1 fixture: %v", err)
	}
	rEvents := inflateRuns(rRuns)
	if !rec.Clean() {
		t.Fatalf("intact v1 fixture reported unclean: %s", rec)
	}
	check(t, rSess, rEvents)
}

// TestV1StreamReaderCompat feeds a v1 event-only stream to the batch reader:
// version detection and the checksum-less frame path must both work.
func TestV1StreamReaderCompat(t *testing.T) {
	events := make([]Event, 10)
	for i := range events {
		events[i] = Event{Seq: uint64(i + 1), Instance: 1, Op: OpInsert, Index: i, Size: i}
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := bw.WriteString(wireMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := writeV1Events(bw, events); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteByte(frameEnd); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Version() != 1 {
		t.Fatalf("version = %d, want 1", sr.Version())
	}
	got, err := readAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestV1LongStringTruncationStillReadable: v1 logs in the wild carry the
// truncated 64 KiB strings the old writer produced; the version-aware reader
// must keep accepting them as-is.
func TestV1LongStringTruncationStillReadable(t *testing.T) {
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'y'
	}
	instances := []Instance{{ID: 1, Kind: KindList, TypeName: string(long)}}
	path := filepath.Join(t.TempDir(), "v1long.dslog")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeV1SessionLog(f, nil, instances); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sess, _, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	inst, ok := sess.Instance(1)
	if !ok {
		t.Fatal("instance lost")
	}
	if len(inst.TypeName) != 0xFFFF {
		t.Fatalf("v1 truncated string read back as %d bytes, want %d", len(inst.TypeName), 0xFFFF)
	}
}
