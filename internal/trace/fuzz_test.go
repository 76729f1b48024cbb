package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStreamReader feeds arbitrary bytes to the wire decoder: it must never
// panic and must either fail cleanly or return well-formed events.
func FuzzStreamReader(f *testing.F) {
	// Seed with a valid stream.
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	if err := writeEvents(sw, []Event{
		{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 1},
		{Seq: 2, Instance: 1, Op: OpRead, Index: NoIndex, Size: 1},
	}); err != nil {
		f.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A v2 stream from the frozen replica keeps the fixed-width path covered
	// now that the writer emits v3 only.
	var bufV2 bytes.Buffer
	if err := writeV2SessionLog(&bufV2, []Event{{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 1}}, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(bufV2.Bytes())
	// An events + aggregate-frame stream keeps the 0x04 decode path covered.
	var bufAgg bytes.Buffer
	swA, err := NewStreamWriter(&bufAgg)
	if err != nil {
		f.Fatal(err)
	}
	if err := writeEvents(swA, []Event{{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1}}); err != nil {
		f.Fatal(err)
	}
	if err := swA.WriteAggregate(AggRecord{Instance: 1, N: 9, Indexed: 9,
		MinIndex: 0, MaxIndex: 8, Fwd: 8, LastIndex: 8, LastSize: 9,
		Ops: func() (o [numOps]uint32) { o[OpRead] = 9; return }()}); err != nil {
		f.Fatal(err)
	}
	if err := swA.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(bufAgg.Bytes())
	f.Add([]byte("DSSPY1\n"))
	f.Add([]byte("DSSPY1\n\x01\xff\xff\xff\xff"))
	f.Add([]byte("DSSPY3\n\x01\xff\xff\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		events, err := readAll(sr)
		if err != nil {
			return
		}
		// Whatever decoded must round-trip.
		var out bytes.Buffer
		sw, err := NewStreamWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeEvents(sw, events); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr2, err := NewStreamReader(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		back, err := readAll(sr2)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip lost events: %d -> %d", len(events), len(back))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d changed: %v -> %v", i, events[i], back[i])
			}
		}
	})
}

// realSessionLogBytes builds the seed corpus the salvaging fuzzers start
// from: a genuine saved session log (registry + events, end marker), produced
// by the same code paths a profiling run uses. Since the v3 bump this is a
// columnar log; realSessionLogBytesV2 provides the fixed-width twin.
func realSessionLogBytes(tb testing.TB, dir string) []byte {
	tb.Helper()
	path := filepath.Join(dir, "seed.dslog")
	s := NewSession()
	s.Register(KindList, "List[int]", "jobs", 0)
	s.Register(KindDictionary, "map[int]string", "names", 0)
	if err := saveEvents(path, s, fuzzSeedEvents()); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// realSessionLogBytesV2 is the same session encoded by the frozen v2 writer:
// the fuzzers keep exercising the fixed-width checksummed path that old logs
// in the wild use.
func realSessionLogBytesV2(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	instances := []Instance{
		{ID: 1, Kind: KindList, TypeName: "List[int]", Label: "jobs"},
		{ID: 2, Kind: KindDictionary, TypeName: "map[int]string", Label: "names"},
	}
	if err := writeV2SessionLog(&buf, fuzzSeedEvents(), instances); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// realSessionLogBytesWithAgg is realSessionLogBytes with v3 aggregate frames
// interleaved between the event frames, so the salvaging fuzzers mutate the
// lazy-aggregation codec too.
func realSessionLogBytesWithAgg(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	events := fuzzSeedEvents()
	if err := writeEvents(sw, events[:100]); err != nil {
		tb.Fatal(err)
	}
	if err := sw.WriteAggregate(AggRecord{Instance: 1, N: 512, Indexed: 500,
		MinIndex: 0, MaxIndex: 499, Fwd: 499, LastIndex: 499, LastSize: 500,
		Ops: func() (o [numOps]uint32) { o[OpRead] = 500; o[OpClear] = 12; return }()}); err != nil {
		tb.Fatal(err)
	}
	if err := writeEvents(sw, events[100:]); err != nil {
		tb.Fatal(err)
	}
	if err := sw.WriteAggregate(AggRecord{Instance: 2, N: 7, LastIndex: NoIndex,
		Ops: func() (o [numOps]uint32) { o[OpSort] = 7; return }()}); err != nil {
		tb.Fatal(err)
	}
	if err := sw.WriteInstances([]Instance{
		{ID: 1, Kind: KindList, TypeName: "List[int]", Label: "jobs"},
		{ID: 2, Kind: KindDictionary, TypeName: "map[int]string", Label: "names"},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileRegistryID is the registry ID of the frame registryGapLogBytes
// plants: restoring it unbounded would allocate ~8·10⁸ placeholder
// instances, tens of GB.
const hostileRegistryID = InstanceID(800_000_000)

// registryGapLogBytes is a v3 session log whose registry carries, ahead of
// its two genuine records, one frame naming hostileRegistryID.
func registryGapLogBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if err := writeEvents(sw, fuzzSeedEvents()[:20]); err != nil {
		tb.Fatal(err)
	}
	if err := sw.WriteInstances([]Instance{
		{ID: hostileRegistryID, Kind: KindList, TypeName: "List[int]", Label: "hostile"},
		{ID: 1, Kind: KindList, TypeName: "List[int]", Label: "jobs"},
		{ID: 2, Kind: KindDictionary, TypeName: "map[int]string", Label: "names"},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func fuzzSeedEvents() []Event {
	events := make([]Event, 200)
	for i := range events {
		events[i] = Event{
			Seq:      uint64(i + 1),
			Instance: InstanceID(i%2 + 1),
			Op:       Op(1 + i%8),
			Index:    i % 17,
			Size:     i,
			Thread:   ThreadID(i % 3),
		}
	}
	return events
}

// FuzzRecoverSessionLog throws arbitrary bytes at the salvaging loader. It
// must never panic, never return an error once the header parses, and its
// diagnostic must stay consistent with what it returned: the event count
// matches, and a clean verdict implies the strict loader returns the same
// events.
func FuzzRecoverSessionLog(f *testing.F) {
	seed := realSessionLogBytes(f, f.TempDir())
	f.Add(seed)
	f.Add(realSessionLogBytesV2(f))
	f.Add(realSessionLogBytesWithAgg(f))
	// A registry frame naming an ID far past the stream: the gap is bounded.
	f.Add(registryGapLogBytes(f))
	// Truncated, bit-flipped, and tail-garbage variants of the real log.
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(append(bytes.Clone(seed), 0xB7, 0x00, 0x01))
	f.Add([]byte("DSSPY2\n"))
	f.Add([]byte("DSSPY3\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.dslog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sess, runs, rec, err := RecoverSessionColumns(path)
		if err != nil {
			// Only an unreadable header may error — and then nothing else.
			if rec != nil || runs != nil || sess != nil {
				t.Fatalf("error %v must come alone, got rec=%v runs=%d", err, rec, len(runs))
			}
			return
		}
		events := inflateRuns(runs)
		if rec == nil {
			t.Fatal("nil error requires a non-nil recovery diagnostic")
		}
		if len(events) != rec.Events {
			t.Fatalf("returned %d events but diagnostic says %d", len(events), rec.Events)
		}
		if rec.DiscardedBytes < 0 || rec.DiscardedBytes > int64(len(data)) {
			t.Fatalf("implausible discarded bytes %d of %d", rec.DiscardedBytes, len(data))
		}
		if rec.Clean() {
			_, strictRuns, err := LoadSessionColumns(path)
			if err != nil {
				t.Fatalf("recovery says clean but strict load fails: %v", err)
			}
			strict := inflateRuns(strictRuns)
			if len(strict) != len(events) {
				t.Fatalf("clean recovery has %d events, strict load %d", len(events), len(strict))
			}
			for i := range strict {
				if strict[i] != events[i] {
					t.Fatalf("event %d: recovered %+v, strict load %+v", i, events[i], strict[i])
				}
			}
		}
	})
}

// FuzzChecksummedFrameReader mutates one byte of a valid checksummed stream
// (v3 columnar and v2 fixed-width seeds) and checks the reader's dichotomy:
// every decode attempt either fails loudly (checksum or structural error) or
// yields intact frames — a flipped payload byte can never slip through
// silently. Salvage must always keep the frames before the damage.
func FuzzChecksummedFrameReader(f *testing.F) {
	seed := realSessionLogBytes(f, f.TempDir())
	f.Add(seed, 20, byte(0x01))
	f.Add(seed, len(seed)/2, byte(0x80))
	f.Add(seed, len(seed)-2, byte(0xFF))
	seedV2 := realSessionLogBytesV2(f)
	f.Add(seedV2, 20, byte(0x01))
	f.Add(seedV2, len(seedV2)/2, byte(0x80))
	seedAgg := realSessionLogBytesWithAgg(f)
	f.Add(seedAgg, len(seedAgg)/2, byte(0x08))
	f.Add(seedAgg, len(seedAgg)/3, byte(0x80))

	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		if len(data) == 0 {
			return
		}
		mutated := bytes.Clone(data)
		idx := pos
		if idx < 0 {
			idx = -idx
		}
		idx %= len(mutated)
		mutated[idx] ^= mask

		sr, err := NewStreamReader(bytes.NewReader(mutated))
		if err != nil {
			return
		}
		// Drive the salvaging entry loop directly: it must terminate, never
		// panic, and classify every frame as good, checksum-failed, or
		// structurally fatal.
		var cols ColumnBatch
		for {
			cols.Reset()
			ent, err := sr.readEntry(&cols)
			if err != nil {
				break
			}
			if ent.kind == frameEvents && (ent.n > MaxBatch || ent.n != cols.Len()) {
				t.Fatalf("frame claims %d events, decoded %d (MaxBatch %d)", ent.n, cols.Len(), MaxBatch)
			}
		}
	})
}

// FuzzColumnarDecoder targets the v3 columnar frame decoder directly, seeded
// with payloads from real v3 session logs plus whole v2/v3 logs (per the
// hot-path overhaul's coverage bar). Two obligations: decodeColumnarInto
// must never panic or over-allocate on arbitrary payload bytes, and whatever
// it accepts must re-encode through appendColumnarBatch to a payload that
// decodes back to the same events.
func FuzzColumnarDecoder(f *testing.F) {
	// Payload-level seeds: every event frame inside a genuine v3 log.
	logV3 := realSessionLogBytes(f, f.TempDir())
	sr, err := NewStreamReader(bytes.NewReader(logV3))
	if err != nil {
		f.Fatal(err)
	}
	for {
		kind, err := sr.readByte()
		if err != nil || kind != frameEvents {
			break
		}
		plen, err := sr.readUvarint()
		if err != nil {
			break
		}
		payload := make([]byte, plen)
		if err := sr.readFull(payload); err != nil {
			break
		}
		f.Add(payload)
		var crc [4]byte
		if err := sr.readFull(crc[:]); err != nil {
			break
		}
	}
	// Hand-built payloads covering the hard columns: NoIndex, backward Seq.
	f.Add(encodeEvents([]Event{
		{Seq: 900, Instance: 3, Op: OpRead, Index: NoIndex, Size: 0, Thread: 2},
		{Seq: 100, Instance: 3, Op: OpWrite, Index: 7, Size: -1, Thread: 2},
	}))
	// Whole-log seeds: the mutator can rediscover framing from these — the
	// aggregate-bearing log covers the 0x04 frame kind and its varint codec.
	f.Add(logV3)
	f.Add(realSessionLogBytesV2(f))
	f.Add(realSessionLogBytesWithAgg(f))

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Decode after pre-existing content: an accepted payload appends, a
		// rejected one leaves the batch as it was.
		cb := &ColumnBatch{}
		cb.Append(Event{Seq: 1, Instance: 9, Op: OpRead, Index: NoIndex})
		if err := decodeColumnarInto(cb, payload); err != nil {
			if cb.Len() != 1 {
				t.Fatalf("decodeColumnarInto left %d partial events after error %v", cb.Len()-1, err)
			}
			return
		}
		n := cb.Len() - 1
		if n == 0 || n > MaxBatch {
			t.Fatalf("decoder accepted a batch of %d (must be 1..%d)", n, MaxBatch)
		}
		// Round trip: the re-encoded payload decodes back to the same events,
		// and encoding those again is byte-stable.
		re := appendColumnarBatch(nil, cb, 1, cb.Len())
		var back ColumnBatch
		if err := decodeColumnarInto(&back, re); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if back.Len() != n {
			t.Fatalf("round trip lost events: %d -> %d", n, back.Len())
		}
		for i := 0; i < n; i++ {
			if back.At(i) != cb.At(i+1) {
				t.Fatalf("event %d changed on round trip: %+v -> %+v", i, cb.At(i+1), back.At(i))
			}
		}
		if !bytes.Equal(appendColumnarBatch(nil, &back, 0, n), re) {
			t.Fatal("re-encoding a decoded payload is not byte-stable")
		}
	})
}
