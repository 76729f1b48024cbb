package core

import (
	"bytes"
	"fmt"
	"testing"

	"dsspy/internal/trace"
)

// eventsOnly wraps a collector behind the []Event recorder interfaces alone,
// so producers writing through it take the RecordAll adapter.
type eventsOnly struct{ c *trace.ShardedCollector }

func (r eventsOnly) Record(e trace.Event)        { r.c.Record(e) }
func (r eventsOnly) RecordBatch(b []trace.Event) { r.c.RecordBatch(b) }

// handoffRun profiles one scenario into an n-shard streaming analyzer whose
// collector retains events, and returns the Seq-ordered stream and the
// rendered report. With adapter set the producer sees the collector through
// eventsOnly.
func handoffRun(t *testing.T, shards int, adapter bool, scenario func(*trace.Session, []trace.InstanceID)) ([]trace.Event, []byte) {
	t.Helper()
	sa := New().NewStreamAnalyzer(shards)
	col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), true)
	var rec trace.Recorder = col
	if adapter {
		rec = eventsOnly{col}
	}
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureThreads: true})
	sa.Attach(s)
	ids := make([]trace.InstanceID, 40)
	for i := range ids {
		ids[i] = s.Register(trace.KindList, "List[int]", fmt.Sprintf("l%d", i), 0)
	}
	scenario(s, ids)
	col.Close()
	rep := sa.Close()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return col.Events(), buf.Bytes()
}

// handoffEvents interleaves every instance through emit: 200 rounds of
// index-sequential inserts, with a read on every third, then 200 rounds of
// sequential reads, calling flush every 13 rounds.
func handoffEvents(ids []trace.InstanceID, emit func(trace.InstanceID, trace.Op, int, int), flush func()) {
	for r := 0; r < 400; r++ {
		for i, id := range ids {
			if r < 200 {
				emit(id, trace.OpInsert, r, r+1)
				if (r+i)%3 == 0 {
					emit(id, trace.OpRead, r/2, r+1)
				}
			} else {
				emit(id, trace.OpRead, r-200, 200)
			}
		}
		if r%13 == 0 {
			flush()
		}
	}
}

// TestColumnHandoffMatchesEventAdapter is the differential test of the
// column producer: writing shard columns directly (ColumnRecorder) and
// going through the []Event adapter of a recorder without the column form
// must yield the same Seq-ordered stream and a byte-identical report — on
// one shard, a few, and 17, which takes the adapter's scatter past one
// scatter group; at flush sizes 1, 7 and the default; and with BindDefault
// routing Session.Emit into the producer alongside direct Emits.
func TestColumnHandoffMatchesEventAdapter(t *testing.T) {
	bindSize := func(size int) func(*trace.Session, []trace.InstanceID) {
		return func(s *trace.Session, ids []trace.InstanceID) {
			p := s.BindSize(size)
			handoffEvents(ids, p.Emit, p.Flush)
			p.Close()
		}
	}
	scenarios := []struct {
		name string
		run  func(*trace.Session, []trace.InstanceID)
	}{
		{"bind", bindSize(0)},
		{"size1", bindSize(1)},
		{"size7", bindSize(7)},
		{"default+emit", func(s *trace.Session, ids []trace.InstanceID) {
			p := s.BindDefault()
			n := 0
			handoffEvents(ids, func(id trace.InstanceID, op trace.Op, index, size int) {
				if n++; n%2 == 0 {
					s.Emit(id, op, index, size)
				} else {
					p.Emit(id, op, index, size)
				}
			}, p.Flush)
			p.Close()
		}},
	}
	for _, shards := range []int{1, 2, 3, 17} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				cols, colRep := handoffRun(t, shards, false, sc.run)
				evs, evRep := handoffRun(t, shards, true, sc.run)
				if len(cols) == 0 || len(cols) != len(evs) {
					t.Fatalf("column producer delivered %d events, adapter %d", len(cols), len(evs))
				}
				for i := range cols {
					if cols[i] != evs[i] {
						t.Fatalf("event %d: column producer %+v, adapter %+v", i, cols[i], evs[i])
					}
					if cols[i].Seq != uint64(i+1) {
						t.Fatalf("event %d has Seq %d, want %d", i, cols[i].Seq, i+1)
					}
				}
				if !bytes.Equal(colRep, evRep) {
					t.Fatalf("reports differ:\n--- column producer\n%s\n--- adapter\n%s", colRep, evRep)
				}
			})
		}
	}
}
