package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"testing"
)

// Version-2 writer, kept test-only and frozen: production writers moved to
// the columnar v3 format, and this replica of the v2 encoder (fixed 38-byte
// records, per-frame CRC32-C, uvarint string prefixes) generates the
// compatibility fixture. Layout must never change — every v2 log in the wild
// was written by exactly this code shape.

func putEvent(b []byte, e Event) {
	binary.LittleEndian.PutUint64(b[0:], e.Seq)
	binary.LittleEndian.PutUint32(b[8:], uint32(e.Instance))
	b[12] = byte(e.Op)
	b[13] = 0
	binary.LittleEndian.PutUint64(b[14:], uint64(int64(e.Index)))
	binary.LittleEndian.PutUint64(b[22:], uint64(int64(e.Size)))
	binary.LittleEndian.PutUint32(b[30:], uint32(e.Thread))
	binary.LittleEndian.PutUint32(b[34:], 0)
}

func writeV2Events(w *bufio.Writer, events []Event) error {
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
		crc := crc32.Update(0, crcTable, hdr[1:])
		for _, e := range events[:n] {
			putEvent(buf, e)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			crc = crc32.Update(crc, crcTable, buf)
		}
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], crc)
		if _, err := w.Write(sum[:]); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

func writeV2String(w *bufio.Writer, s string) error {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(s)))
	if _, err := w.Write(n[:k]); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func writeV2SessionLog(w io.Writer, events []Event, instances []Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(wireMagicV2); err != nil {
		return err
	}
	if err := writeV2Events(bw, events); err != nil {
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
			if err := writeV2String(bw, s); err != nil {
				return err
			}
		}
	}
	if err := bw.WriteByte(frameEnd); err != nil {
		return err
	}
	return bw.Flush()
}

// v2FixtureContents is the deterministic session the checked-in fixture
// testdata/v2_session.dslog encodes. Thread ids and NoIndex reads are in the
// mix so the fixed-width columns all carry non-trivial values.
func v2FixtureContents() ([]Event, []Instance) {
	events := make([]Event, 96)
	for i := range events {
		idx := i % 11
		if i%7 == 0 {
			idx = NoIndex
		}
		events[i] = Event{
			Seq:      uint64(i + 1),
			Instance: InstanceID(i%3 + 1),
			Op:       Op(1 + i%5),
			Index:    idx,
			Size:     i % 29,
			Thread:   ThreadID(i % 4),
		}
	}
	instances := []Instance{
		{ID: 1, Kind: KindList, TypeName: "[]job", Label: "queue",
			Site: Site{File: "cmd/worker/main.go", Function: "main.pump", Line: 88}},
		{ID: 2, Kind: KindDictionary, TypeName: "map[uint64]*node", Label: "index",
			Site: Site{File: "internal/store/store.go", Function: "store.Open", Line: 31}},
		{ID: 3, Kind: KindQueue, TypeName: "chan task", Label: "work",
			Site: Site{File: "internal/sched/sched.go", Function: "sched.New", Line: 12}},
	}
	return events, instances
}

const v2FixturePath = "testdata/v2_session.dslog"

// TestV2SessionLogCompat loads the checked-in pre-columnar fixture with both
// the strict and the salvaging loader: the v3 bump must never strand the
// checksummed fixed-width logs the previous releases wrote.
func TestV2SessionLogCompat(t *testing.T) {
	wantEvents, wantInstances := v2FixtureContents()

	if os.Getenv("DSSPY_WRITE_V2_FIXTURE") != "" {
		f, err := os.Create(v2FixturePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeV2SessionLog(f, wantEvents, wantInstances); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The fixture on disk must stay exactly what the frozen v2 encoder
	// produces — drift means it was regenerated by accident.
	var golden bytes.Buffer
	if err := writeV2SessionLog(&golden, wantEvents, wantInstances); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(v2FixturePath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with DSSPY_WRITE_V2_FIXTURE=1): %v", err)
	}
	if !bytes.Equal(onDisk, golden.Bytes()) {
		t.Fatalf("fixture drifted from the frozen v2 encoding (%d vs %d bytes)", len(onDisk), golden.Len())
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

	sess, runs, err := LoadSessionColumns(v2FixturePath)
	if err != nil {
		t.Fatalf("strict load of v2 fixture: %v", err)
	}
	events := inflateRuns(runs)
	check(t, sess, events)

	rSess, rRuns, rec, err := RecoverSessionColumns(v2FixturePath)
	if err != nil {
		t.Fatalf("salvaging load of v2 fixture: %v", err)
	}
	rEvents := inflateRuns(rRuns)
	if !rec.Clean() {
		t.Fatalf("intact v2 fixture reported unclean: %s", rec)
	}
	check(t, rSess, rEvents)
}

// TestV2ChecksumStillEnforced: the reader must keep verifying v2 CRCs after
// the v3 bump — a flipped payload byte in a v2 log fails loudly, and the
// salvaging loader skips exactly that frame.
func TestV2ChecksumStillEnforced(t *testing.T) {
	events, instances := v2FixtureContents()
	var buf bytes.Buffer
	if err := writeV2SessionLog(&buf, events, instances); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[7+5+eventSize/2] ^= 0x04 // inside the first event record

	sr, err := NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readBatch(sr); err != ErrChecksum {
		t.Fatalf("flipped v2 payload byte returned %v, want ErrChecksum", err)
	}
}
