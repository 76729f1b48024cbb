package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Unit tests for the lazy-aggregation layer: the agg fold state behind the
// handle/producer drop fast paths, the AggRecord merge/direction semantics,
// the v3 aggregate frame codec (round trip + salvage), and the session's
// flushAggregate routing (gate settlement, sink, recorder fallback).

func TestAggFoldForwardScan(t *testing.T) {
	var a agg
	a.reset()
	for i := 0; i < 100; i++ {
		a.fold(OpRead, i)
	}
	rec := a.take(7)
	if rec.Instance != 7 || rec.N != 100 || rec.Indexed != 100 {
		t.Fatalf("bad counters: %+v", rec)
	}
	if rec.Ops[OpRead] != 100 {
		t.Fatalf("ops[OpRead] = %d, want 100", rec.Ops[OpRead])
	}
	if rec.MinIndex != 0 || rec.MaxIndex != 99 || rec.LastIndex != 99 {
		t.Fatalf("bad envelope: %+v", rec)
	}
	// Every step expanded the envelope upward; the sentinel correction
	// removes the first fold's artificial double-count.
	if rec.Fwd != 99 || rec.Back != 0 {
		t.Fatalf("direction counters fwd=%d back=%d, want 99/0", rec.Fwd, rec.Back)
	}
	if got := rec.Direction(); got != "forward" {
		t.Fatalf("Direction() = %q, want forward", got)
	}
	// take resets: the next record starts from sentinels.
	a.fold(OpWrite, 5)
	rec2 := a.take(7)
	if rec2.N != 1 || rec2.MinIndex != 5 || rec2.MaxIndex != 5 || rec2.Fwd != 0 || rec2.Back != 0 {
		t.Fatalf("state leaked across take: %+v", rec2)
	}
	if rec2.Direction() != "" {
		t.Fatalf("single access has no direction, got %q", rec2.Direction())
	}
}

func TestAggFoldBackwardAndMixed(t *testing.T) {
	var a agg
	a.reset()
	for i := 99; i >= 0; i-- {
		a.fold(OpRead, i)
	}
	rec := a.take(1)
	if rec.Fwd != 0 || rec.Back != 99 {
		t.Fatalf("backward scan fwd=%d back=%d, want 0/99", rec.Fwd, rec.Back)
	}
	if rec.Direction() != "backward" {
		t.Fatalf("Direction() = %q, want backward", rec.Direction())
	}

	a.reset()
	// Alternating envelope expansion in both directions: mixed.
	for i := 0; i < 50; i++ {
		a.fold(OpRead, 100+i)
		a.fold(OpRead, 100-i)
	}
	rec = a.take(1)
	if rec.Direction() != "mixed" {
		t.Fatalf("Direction() = %q (fwd=%d back=%d), want mixed", rec.Direction(), rec.Fwd, rec.Back)
	}

	a.reset()
	// Unindexed ops never touch the envelope or direction.
	a.fold(OpClear, NoIndex)
	a.fold(OpSort, NoIndex)
	rec = a.take(1)
	if rec.N != 2 || rec.Indexed != 0 || rec.Direction() != "" {
		t.Fatalf("unindexed folds leaked into the envelope: %+v", rec)
	}
	if rec.MinIndex != 0 || rec.MaxIndex != 0 {
		t.Fatalf("unindexed record should have zero envelope, got %+v", rec)
	}
}

func TestAggRecordMerge(t *testing.T) {
	var a, b agg
	a.reset()
	b.reset()
	for i := 0; i < 10; i++ {
		a.fold(OpRead, i)
	}
	for i := 20; i < 40; i++ {
		b.fold(OpWrite, i)
	}
	ra, rb := a.take(3), b.take(3)
	var m AggRecord
	m.Merge(ra)
	m.Merge(rb)
	if m.N != 30 || m.Indexed != 30 {
		t.Fatalf("merged N=%d Indexed=%d, want 30/30", m.N, m.Indexed)
	}
	if m.MinIndex != 0 || m.MaxIndex != 39 || m.LastIndex != 39 {
		t.Fatalf("merged envelope: %+v", m)
	}
	if m.Ops[OpRead] != 10 || m.Ops[OpWrite] != 20 {
		t.Fatalf("merged ops: %+v", m.Ops)
	}
	// Merging a zero record is a no-op.
	before := m
	m.Merge(AggRecord{})
	if m != before {
		t.Fatal("zero-record merge changed the accumulator")
	}
}

// TestAggregateFrameRoundTrip writes events and aggregate frames onto one v3
// stream and reads them back: the events via ReadBatch (which must skip the
// aggregate frames), the aggregates via the OnAggregate hook, byte-exact.
func TestAggregateFrameRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 1},
		{Seq: 2, Instance: 1, Op: OpRead, Index: NoIndex, Size: 1},
	}
	recs := []AggRecord{
		{Instance: 1, N: 128, Indexed: 100, MinIndex: 0, MaxIndex: 99,
			Fwd: 99, Back: 0, LastIndex: 99, LastSize: 100,
			Ops: func() (o [numOps]uint32) { o[OpRead] = 100; o[OpClear] = 28; return }()},
		{Instance: 2, N: 5, LastIndex: NoIndex, LastSize: -1,
			Ops: func() (o [numOps]uint32) { o[OpSort] = 5; return }()},
	}

	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, events); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := sw.WriteAggregate(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A zero record writes nothing.
	if err := sw.WriteAggregate(AggRecord{Instance: 9}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []AggRecord
	sr.OnAggregate = func(rec AggRecord) { got = append(got, rec) }
	back, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("events: got %d, want %d", len(back), len(events))
	}
	if len(got) != len(recs) {
		t.Fatalf("aggregates: got %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("aggregate %d changed on the wire:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}

	// The columnar read loop must deliver the same aggregates.
	sr2, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got2 []AggRecord
	sr2.OnAggregate = func(rec AggRecord) { got2 = append(got2, rec) }
	var cb ColumnBatch
	for {
		if _, err := sr2.ReadColumns(&cb); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if cb.Len() != len(events) || len(got2) != len(recs) {
		t.Fatalf("columnar read: %d events, %d aggregates", cb.Len(), len(got2))
	}
}

// TestAggregateFrameSalvage flips one byte inside an aggregate frame payload:
// the reader must classify the frame as checksum-failed with the frame fully
// consumed, and salvage must keep every event frame around it.
func TestAggregateFrameSalvage(t *testing.T) {
	events := []Event{
		{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1},
		{Seq: 2, Instance: 1, Op: OpRead, Index: 0, Size: 1},
	}
	rec := AggRecord{Instance: 1, N: 64, Indexed: 64, MinIndex: 2, MaxIndex: 65,
		Fwd: 63, LastIndex: 65, LastSize: 66,
		Ops: func() (o [numOps]uint32) { o[OpRead] = 64; return }()}

	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, events[:1]); err != nil {
		t.Fatal(err)
	}
	// Flush so buf.Len() marks real frame boundaries for the corruption.
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	aggStart := buf.Len()
	if err := sw.WriteAggregate(rec); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	aggEnd := buf.Len()
	if err := writeEvents(sw, events[1:]); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	raw := bytes.Clone(buf.Bytes())
	// Flip a payload byte (skip the kind byte and length prefix: +3 is
	// safely inside the varint-encoded record body).
	if aggEnd-aggStart < 8 {
		t.Fatalf("aggregate frame only %d bytes", aggEnd-aggStart)
	}
	raw[aggStart+3] ^= 0x40

	// Direct read: the aggregate frame fails its checksum, the frame is
	// consumed, and the next event frame decodes.
	sr, err := NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var aggs []AggRecord
	sr.OnAggregate = func(r AggRecord) { aggs = append(aggs, r) }
	if _, err := sr.ReadBatch(); err != nil {
		t.Fatalf("first event frame: %v", err)
	}
	_, err = sr.ReadBatch()
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadStream) {
		t.Fatalf("corrupt aggregate frame returned %v, want checksum/decode error", err)
	}
	if errors.Is(err, ErrChecksum) {
		// Frame consumed: the stream continues at the next frame.
		batch, err := sr.ReadBatch()
		if err != nil || len(batch) != 1 {
			t.Fatalf("stream did not continue past corrupt aggregate: %v", err)
		}
	}
	if len(aggs) != 0 {
		t.Fatal("corrupt aggregate was delivered to OnAggregate")
	}

	// Salvaging loader: all events survive, the bad frame is counted.
	dir := t.TempDir()
	path := filepath.Join(dir, "agg.dslog")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, runs, recov, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := inflateRuns(runs); len(got) != len(events) {
		t.Fatalf("salvaged %d events, want %d (%s)", len(got), len(events), recov)
	}
	if recov.SkippedFrames != 1 || recov.SkippedEvents != 0 {
		t.Fatalf("recovery accounting: %+v", recov)
	}
	if recov.Truncated {
		t.Fatalf("corrupt aggregate must not truncate the stream: %s", recov)
	}

	// The intact log round-trips through the salvaging loader cleanly.
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, runs, recov, err = RecoverSessionColumns(path)
	if got := inflateRuns(runs); err != nil || !recov.Clean() || len(got) != len(events) {
		t.Fatalf("intact log with aggregates: events=%d recovery=%s err=%v", len(got), recov, err)
	}
}

// aggObserverGate drops everything in spans and records what ObserveAggregate
// delivers — the AggregateObserver extension the sampling controller uses.
type aggObserverGate struct {
	span    int
	kept    uint64
	dropped uint64
	recs    []AggRecord
}

func (g *aggObserverGate) Admit(InstanceID, ThreadID) bool { return false }
func (g *aggObserverGate) AdmitRun(InstanceID, ThreadID) (bool, int) {
	return false, g.span
}
func (g *aggObserverGate) Observe(_ InstanceID, kept, dropped uint64) {
	g.kept += kept
	g.dropped += dropped
}
func (g *aggObserverGate) ObserveAggregate(rec AggRecord) {
	g.recs = append(g.recs, rec)
	g.dropped += rec.N
}

// TestHandleAggregateConservation drives a handle against a dropping gate:
// every access must be counted — through ObserveAggregate, never blind — and
// the detail subsample must describe the dropped accesses' shape. N is exact
// by credit arithmetic; op counts and the index envelope come from the
// detail samples folded at span and sub-span boundaries.
func TestHandleAggregateConservation(t *testing.T) {
	g := &aggObserverGate{span: 16}
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec, Gate: g})
	id := s.Register(KindList, "List[int]", "", 0)
	var h Handle
	s.InitHandle(&h, id)

	const n = 100
	for i := 0; i < n; i++ {
		if !h.Drop(OpRead, i) {
			h.Emit(OpRead, i, i+1)
		}
	}
	s.FlushHandles()

	var agg AggRecord
	for _, r := range g.recs {
		agg.Merge(r)
	}
	if g.kept != 0 {
		t.Fatalf("drop-all gate observed %d kept events", g.kept)
	}
	if agg.N != n || g.dropped != n {
		t.Fatalf("conservation: aggregated %d, observed-dropped %d, want %d", agg.N, g.dropped, n)
	}
	// Detail samples land at each gate-span boundary (span 16 < detailEvery,
	// so no sub-span boundaries occur): events 0, 16, ..., 96.
	if want := uint32((n + 15) / 16); agg.Ops[OpRead] != want || uint64(want) != agg.Indexed {
		t.Fatalf("detail samples: ops[OpRead]=%d indexed=%d, want %d: %+v",
			agg.Ops[OpRead], agg.Indexed, want, agg)
	}
	if agg.MinIndex != 0 || agg.MaxIndex != 96 || agg.LastIndex != 96 {
		t.Fatalf("sampled envelope: %+v", agg)
	}
	if agg.Direction() != "forward" {
		t.Fatalf("Direction() = %q, want forward", agg.Direction())
	}
	if got := rec.Len(); got != 0 {
		t.Fatalf("drop-all run materialized %d events", got)
	}
	flushes, total := s.AggregateStats()
	if flushes == 0 || total != n {
		t.Fatalf("AggregateStats() = %d, %d; want >0, %d", flushes, total, n)
	}
	// Flushing again settles nothing new.
	s.FlushHandles()
	if g.dropped != n {
		t.Fatalf("double flush double-counted: %d", g.dropped)
	}
}

// TestHandleDetailSubsample pins the sub-span mechanics on a gate span wider
// than detailEvery: the denied boundary event folds detail, then every
// detailEvery-th dropped event takes the slow path and folds another sample,
// while the events in between cost only the inlined decrement. The count
// stays exact; the detail density is 1 per sub-span.
func TestHandleDetailSubsample(t *testing.T) {
	const span = 300
	g := &aggObserverGate{span: span}
	s := NewSessionWith(Options{Recorder: NewMemRecorder(), Gate: g})
	id := s.Register(KindArray, "Array[int]", "", 0)
	var h Handle
	s.InitHandle(&h, id)

	for i := 0; i < span; i++ {
		if !h.Drop(OpWrite, i) {
			h.Emit(OpWrite, i, span)
		}
	}
	s.FlushHandles()

	var agg AggRecord
	for _, r := range g.recs {
		agg.Merge(r)
	}
	if agg.N != span || g.dropped != span {
		t.Fatalf("conservation: aggregated %d, observed-dropped %d, want %d", agg.N, g.dropped, span)
	}
	// Samples at event 0 (the denied boundary), then one per sub-span:
	// events 65, 130, 195, 260 (the boundary event consumes one credit
	// before each detailEvery-sized sub-span is carved).
	want := uint32(1 + (span-1)/(detailEvery+1))
	if agg.Ops[OpWrite] != want || agg.Indexed != uint64(want) {
		t.Fatalf("detail samples: ops[OpWrite]=%d indexed=%d, want %d", agg.Ops[OpWrite], agg.Indexed, want)
	}
	if agg.MinIndex != 0 || agg.MaxIndex != 260 {
		t.Fatalf("sampled envelope: %+v", agg)
	}
	if agg.Direction() != "forward" {
		t.Fatalf("Direction() = %q, want forward", agg.Direction())
	}
	if agg.LastSize != span {
		t.Fatalf("LastSize = %d, want %d", agg.LastSize, span)
	}
}

// plainDropGate has no AggregateObserver: the session must fall back to
// blind Observe settlement for conservation and route the record to the
// recorder's AggregateRecorder extension.
type plainDropGate struct {
	span    int
	dropped uint64
}

func (g *plainDropGate) Admit(InstanceID, ThreadID) bool           { return false }
func (g *plainDropGate) AdmitRun(InstanceID, ThreadID) (bool, int) { return false, g.span }
func (g *plainDropGate) Observe(_ InstanceID, _, dropped uint64)   { g.dropped += dropped }

func TestAggregateRecorderFallback(t *testing.T) {
	g := &plainDropGate{span: 8}
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec, Gate: g})
	id := s.Register(KindStack, "Stack[int]", "", 0)
	var h Handle
	s.InitHandle(&h, id)
	for i := 0; i < 24; i++ {
		if !h.Drop(OpInsert, i) {
			h.Emit(OpInsert, i, i+1)
		}
	}
	s.FlushHandles()
	if g.dropped != 24 {
		t.Fatalf("plain gate settled %d drops, want 24", g.dropped)
	}
	aggs := rec.Aggregates()
	var total uint64
	for _, r := range aggs {
		total += r.N
	}
	if len(aggs) == 0 || total != 24 {
		t.Fatalf("recorder fallback got %d records covering %d, want 24", len(aggs), total)
	}
	rec.Reset()
	if len(rec.Aggregates()) != 0 {
		t.Fatal("Reset kept aggregates")
	}
}

// TestHandleUngatedDelivery: without a gate the handle path must deliver
// every event with correct sequence numbers — the byte-identity property the
// full-fidelity mode depends on (the corpus-level differential covers whole
// reports; this is the unit-level check).
func TestHandleUngatedDelivery(t *testing.T) {
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec})
	id := s.Register(KindQueue, "Queue[int]", "", 0)
	var h Handle
	s.InitHandle(&h, id)
	for i := 0; i < 10; i++ {
		if !h.Drop(OpInsert, i) {
			h.Emit(OpInsert, i, i+1)
		}
	}
	events := rec.Events()
	if len(events) != 10 {
		t.Fatalf("ungated handle delivered %d events, want 10", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Instance != id || e.Op != OpInsert || e.Index != i || e.Size != i+1 {
			t.Fatalf("event %d corrupted: %+v", i, e)
		}
	}
}

// TestDecodeAggRecordRejects exercises the decoder's malformed-payload
// taxonomy directly.
func TestDecodeAggRecordRejects(t *testing.T) {
	good := appendAggRecord(nil, AggRecord{Instance: 1, N: 3,
		Ops: func() (o [numOps]uint32) { o[OpRead] = 3; return }()})
	if _, err := decodeAggRecord(good); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Trailing garbage.
	if _, err := decodeAggRecord(append(bytes.Clone(good), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Truncated.
	if _, err := decodeAggRecord(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Empty.
	if _, err := decodeAggRecord(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}
