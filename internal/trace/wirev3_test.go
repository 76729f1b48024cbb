package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// corpusLikeEvents builds a deterministic stream shaped like what the
// instrumented containers emit: per-instance phases of appends with stepping
// Index/Size, scan passes, and occasional clears, on a handful of instances
// with a few threads. This is the workload profile the v3 size gate measures.
func corpusLikeEvents(n int) []Event {
	events := make([]Event, 0, n)
	seq := uint64(0)
	for len(events) < n {
		inst := InstanceID(len(events)/97%4 + 1)
		th := ThreadID(len(events) / 331 % 3)
		// Append phase.
		for i := 0; i < 64 && len(events) < n; i++ {
			seq++
			events = append(events, Event{Seq: seq, Instance: inst, Op: OpInsert, Index: i, Size: i + 1, Thread: th})
		}
		// Scan phase.
		for i := 0; i < 32 && len(events) < n; i++ {
			seq++
			events = append(events, Event{Seq: seq, Instance: inst, Op: OpRead, Index: i, Size: 64, Thread: th})
		}
		if len(events) < n {
			seq++
			events = append(events, Event{Seq: seq, Instance: inst, Op: OpClear, Index: NoIndex, Size: 0, Thread: th})
		}
	}
	return events
}

// writeEvents is how tests write an []Event: scattered once onto columns,
// then encoded by the one event encoder, WriteColumns.
func writeEvents(sw *StreamWriter, events []Event) error {
	var b ColumnBatch
	b.AppendEvents(events)
	return sw.WriteColumns(&b)
}

// saveEvents writes a session log of events through SaveSessionColumns.
func saveEvents(path string, s *Session, events []Event) error {
	var b ColumnBatch
	b.AppendEvents(events)
	return SaveSessionColumns(path, s, &b)
}

// encodeEvents returns the v3 payload of one frame holding events.
func encodeEvents(events []Event) []byte {
	var b ColumnBatch
	b.AppendEvents(events)
	return appendColumnarBatch(nil, &b, 0, b.Len())
}

// inflateRuns concatenates loaded column runs into one []Event.
func inflateRuns(runs []*ColumnBatch) []Event {
	var out []Event
	for _, r := range runs {
		out = r.Events(out)
	}
	return out
}

// writeStream encodes each batch as its own frame(s) in a complete stream:
// version 3 through WriteColumns, version 2 through the frozen v2 replica.
func writeStream(t *testing.T, version int, batches ...[]Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	switch version {
	case 2:
		bw := bufio.NewWriter(&buf)
		bw.WriteString(wireMagicV2)
		for _, b := range batches {
			if err := writeV2Events(bw, b); err != nil {
				t.Fatal(err)
			}
		}
		bw.WriteByte(frameEnd)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	case 3:
		sw, err := NewStreamWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := writeEvents(sw, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no writer for version %d", version)
	}
	return buf.Bytes()
}

func readStream(t *testing.T, raw []byte, wantVersion int) []Event {
	t.Helper()
	sr, err := NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Version() != wantVersion {
		t.Fatalf("version = %d, want %d", sr.Version(), wantVersion)
	}
	events, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestV3RoundTripHardCases exercises the columnar encoder on the inputs that
// stress each column: negative indexes (NoIndex), non-monotonic Seqs (spill
// WALs interleave producers), large magnitudes, and single-event batches.
func TestV3RoundTripHardCases(t *testing.T) {
	cases := map[string][]Event{
		"single": {{Seq: 99, Instance: 7, Op: OpClear, Index: NoIndex, Size: 0, Thread: 3}},
		"noindex-runs": {
			{Seq: 1, Instance: 1, Op: OpRead, Index: NoIndex, Size: 10},
			{Seq: 2, Instance: 1, Op: OpRead, Index: NoIndex, Size: 10},
			{Seq: 3, Instance: 1, Op: OpRead, Index: 5, Size: 10},
		},
		"seq-backwards": { // spill WAL: batches from different producers interleave
			{Seq: 500, Instance: 2, Op: OpInsert, Index: 0, Size: 1, Thread: 2},
			{Seq: 100, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 1},
			{Seq: 501, Instance: 2, Op: OpInsert, Index: 1, Size: 2, Thread: 2},
			{Seq: 101, Instance: 1, Op: OpInsert, Index: 1, Size: 2, Thread: 1},
		},
		"wide-values": {
			{Seq: 1 << 62, Instance: 1<<32 - 1, Op: 255, Index: 1<<53 - 1, Size: -(1 << 53), Thread: 1<<32 - 1},
			{Seq: 1, Instance: 1, Op: 0, Index: -(1 << 53), Size: 1<<53 - 1, Thread: 0},
		},
		"alternating-instances": {
			{Seq: 1, Instance: 1, Op: OpRead, Index: 0, Size: 1, Thread: 1},
			{Seq: 2, Instance: 2, Op: OpWrite, Index: 9, Size: 2, Thread: 2},
			{Seq: 3, Instance: 1, Op: OpRead, Index: 0, Size: 1, Thread: 1},
			{Seq: 4, Instance: 2, Op: OpWrite, Index: 9, Size: 2, Thread: 2},
		},
	}
	for name, events := range cases {
		t.Run(name, func(t *testing.T) {
			got := readStream(t, writeStream(t, 3, events), 3)
			if len(got) != len(events) {
				t.Fatalf("decoded %d events, want %d", len(got), len(events))
			}
			for i := range got {
				if got[i] != events[i] {
					t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
				}
			}
		})
	}
}

// TestV3LargeBatchSplits: a batch above MaxBatch splits into multiple frames
// and reassembles losslessly, exactly like v2.
func TestV3LargeBatchSplits(t *testing.T) {
	events := corpusLikeEvents(MaxBatch + 1234)
	got := readStream(t, writeStream(t, 3, events), 3)
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestV3BytesPerEventGate is the wire half of the hot-path acceptance bar:
// on the corpus-shaped stream the v3 columnar encoding must spend at most a
// third of the bytes per event the v2 fixed-width frames do (v2 side from the
// frozen replica, writeV2Events). Deterministic, so it runs in plain
// `go test`.
func TestV3BytesPerEventGate(t *testing.T) {
	events := corpusLikeEvents(50_000)
	v2 := len(writeStream(t, 2, events))
	v3 := len(writeStream(t, 3, events))
	t.Logf("v2: %d bytes (%.1f B/event), v3: %d bytes (%.2f B/event), ratio %.1fx",
		v2, float64(v2)/float64(len(events)), v3, float64(v3)/float64(len(events)),
		float64(v2)/float64(v3))
	if v3*3 > v2 {
		t.Fatalf("v3 uses %d bytes, v2 %d: need v3 ≤ v2/3", v3, v2)
	}
}

// TestV2WriterStillSpeaksV2: the frozen v2 replica keeps emitting
// fixed-width checksummed frames that the reader detects as version 2 — the
// encoder the compat fixtures and the size gate rely on.
func TestV2WriterStillSpeaksV2(t *testing.T) {
	events := corpusLikeEvents(300)
	raw := writeStream(t, 2, events)
	if !bytes.HasPrefix(raw, []byte(wireMagicV2)) {
		t.Fatalf("v2 writer produced magic %q", raw[:8])
	}
	got := readStream(t, raw, 2)
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestV3ChecksumFailureSkippable: flip one payload byte in the first of two
// v3 frames. The reader must return ErrChecksum with the declared count (so
// salvage accounting works) and nothing appended, fully consume the frame,
// and decode the second frame intact.
func TestV3ChecksumFailureSkippable(t *testing.T) {
	b1 := corpusLikeEvents(40)
	b2 := make([]Event, 10)
	for i := range b2 {
		b2[i] = Event{Seq: uint64(1000 + i), Instance: 9, Op: OpRead, Index: i, Size: 1}
	}
	raw := writeStream(t, 3, b1, b2)
	// Frame 1 starts after the 7-byte magic: kind, uvarint length, payload.
	plen, k := binary.Uvarint(raw[8:])
	if k <= 0 {
		t.Fatal("cannot parse frame length")
	}
	raw[8+k+int(plen)/2] ^= 0x40

	sr, err := NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ev1, n1, err := sr.readEventFrameAt(t)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame returned %v, want ErrChecksum", err)
	}
	if n1 != len(b1) || len(ev1) != 0 {
		t.Fatalf("corrupt frame: declared %d, appended %d; want declared %d, appended 0", n1, len(ev1), len(b1))
	}
	ev2, _, err := sr.readEventFrameAt(t)
	if err != nil {
		t.Fatalf("good frame after corrupt one failed: %v", err)
	}
	for i := range ev2 {
		if ev2[i] != b2[i] {
			t.Fatalf("frame 2 event %d: got %+v, want %+v", i, ev2[i], b2[i])
		}
	}
}

// readEventFrameAt reads the next frame, which must be an event frame, and
// returns its decoded events and the count readEntry reported (helper keeps
// the corruption tests readable).
func (sr *StreamReader) readEventFrameAt(t *testing.T) ([]Event, int, error) {
	t.Helper()
	var b ColumnBatch
	ent, err := sr.readEntry(&b)
	if err == nil && ent.kind != frameEvents {
		t.Fatalf("expected an event frame, got kind 0x%02x", ent.kind)
	}
	return b.Events(nil), ent.n, err
}

// TestV3DecoderRejectsMalformedPayloads drives decodeColumnarInto with
// structurally broken (but checksum-valid) payloads: every one must come
// back ErrBadStream, never panic, never succeed.
func TestV3DecoderRejectsMalformedPayloads(t *testing.T) {
	good := encodeEvents([]Event{
		{Seq: 1, Instance: 1, Op: OpRead, Index: 0, Size: 1},
		{Seq: 2, Instance: 1, Op: OpRead, Index: 1, Size: 1},
	})
	cases := map[string][]byte{
		"empty":          {},
		"zero-count":     binary.AppendUvarint(nil, 0),
		"count-too-big":  binary.AppendUvarint(nil, MaxBatch+1),
		"truncated":      good[:len(good)-3],
		"trailing-bytes": append(bytes.Clone(good), 0x00, 0x01),
		// count=2 then a run of length 3 in the Instance column.
		"run-overflow": func() []byte {
			b := binary.AppendUvarint(nil, 2) // count
			b = binary.AppendUvarint(b, 7)    // seq[0]
			b = binary.AppendUvarint(b, 2)    // seq delta
			b = binary.AppendUvarint(b, 3)    // instance run length > count
			b = binary.AppendUvarint(b, 1)    // instance value
			return b
		}(),
		"zero-run": func() []byte {
			b := binary.AppendUvarint(nil, 2)
			b = binary.AppendUvarint(b, 7)
			b = binary.AppendUvarint(b, 2)
			b = binary.AppendUvarint(b, 0) // zero-length run can never cover the column
			b = binary.AppendUvarint(b, 1)
			return b
		}(),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if err := decodeColumnarInto(&ColumnBatch{}, payload); !errors.Is(err, ErrBadStream) {
				t.Fatalf("malformed payload decoded: err = %v", err)
			}
		})
	}
	if err := decodeColumnarInto(&ColumnBatch{}, good); err != nil {
		t.Fatalf("control payload failed to decode: %v", err)
	}
}

// TestV3OversizedPayloadRejected: a declared payload length above the bound
// must fail without attempting the allocation.
func TestV3OversizedPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(wireMagicV3)
	buf.WriteByte(frameEvents)
	var ln [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(ln[:], maxV3Payload+1)
	buf.Write(ln[:k])
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadBatch(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("oversized payload length returned %v, want ErrBadStream", err)
	}
}

// TestZigzagRoundTrip pins the zigzag mapping: small magnitudes of either
// sign stay small, and every value round-trips.
func TestZigzagRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 2, -2, 63, -64, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)}
	for _, v := range values {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag round trip broke %d -> %d", v, got)
		}
	}
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(NoIndex) != 1 {
		t.Fatalf("zigzag ordering off: z(-1)=%d z(1)=%d", zigzag(-1), zigzag(1))
	}
}

// TestV3CRCCoversPayload pins the checksum definition: Castagnoli over the
// payload bytes only (the length prefix self-corrupts the window if damaged).
func TestV3CRCCoversPayload(t *testing.T) {
	events := []Event{{Seq: 1, Instance: 1, Op: OpRead, Index: 0, Size: 1}}
	raw := writeStream(t, 3, events)
	plen, k := binary.Uvarint(raw[8:])
	payload := raw[8+k : 8+k+int(plen)]
	sum := binary.LittleEndian.Uint32(raw[8+k+int(plen):])
	if sum != crc32.Checksum(payload, crcTable) {
		t.Fatal("frame CRC is not Castagnoli over the payload bytes")
	}
}
