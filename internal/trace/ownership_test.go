package trace

import (
	"path/filepath"
	"testing"
)

// ownershipBatch builds a fresh batch whose contents the test will clobber
// after handing it to a recorder.
func ownershipBatch(n int) []Event {
	batch := make([]Event, n)
	for i := range batch {
		batch[i] = Event{
			Seq:      uint64(i + 1),
			Instance: 1,
			Op:       Op(1 + i%4),
			Index:    i,
			Size:     i,
			Thread:   ThreadID(i % 3),
		}
	}
	return batch
}

// clobber overwrites every event in the slice with poison. Any recorder that
// retained the caller's slice (instead of copying or fully consuming it
// before returning) will see the poison in its stored events.
func clobber(batch []Event) {
	for i := range batch {
		batch[i] = Event{Seq: ^uint64(0), Instance: 999, Op: OpClear, Index: -7, Size: -7, Thread: 999}
	}
}

// TestBatchRecorderOwnership enforces the BatchRecorder ownership contract on
// every implementation: RecordAll hands over a batch, the caller immediately
// overwrites the slice (as a Producer reusing its shuttle would), and the
// recorder's stored view must be unaffected. An implementation that aliases
// the slice past return fails with poison events.
func TestBatchRecorderOwnership(t *testing.T) {
	const n = 100
	verify := func(t *testing.T, events []Event) {
		t.Helper()
		if len(events) != n {
			t.Fatalf("recorder kept %d events, want %d", len(events), n)
		}
		for i, e := range events {
			if e.Instance == 999 || e.Seq == ^uint64(0) {
				t.Fatalf("event %d is poison: recorder retained the caller's slice (%+v)", i, e)
			}
			if e.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
			}
		}
	}

	t.Run("mem", func(t *testing.T) {
		m := NewMemRecorder()
		batch := ownershipBatch(n)
		RecordAll(m, batch)
		clobber(batch)
		verify(t, m.Events())
	})

	t.Run("counting", func(t *testing.T) {
		c := NewCountingRecorder()
		batch := ownershipBatch(n)
		RecordAll(c, batch)
		clobber(batch)
		if got := c.Total(); got != n {
			t.Fatalf("counted %d events, want %d", got, n)
		}
	})

	t.Run("tee", func(t *testing.T) {
		a, b := NewMemRecorder(), NewMemRecorder()
		tee := TeeRecorder{a, b}
		batch := ownershipBatch(n)
		RecordAll(tee, batch)
		clobber(batch)
		verify(t, a.Events())
		verify(t, b.Events())
	})

	t.Run("filter", func(t *testing.T) {
		m := NewMemRecorder()
		fr := FilterRecorder{Keep: func(Event) bool { return true }, Next: m}
		batch := ownershipBatch(n)
		RecordAll(fr, batch)
		clobber(batch)
		verify(t, m.Events())
	})

	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "own.dslog")
		fr, err := CreateEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		batch := ownershipBatch(n)
		RecordAll(fr, batch)
		clobber(batch)
		if err := fr.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := ReadEventsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		verify(t, events)
	})

	t.Run("async", func(t *testing.T) {
		c := NewShardedCollectorSize(1, 1<<12)
		batch := ownershipBatch(n)
		RecordAll(c, batch)
		clobber(batch)
		c.Close()
		verify(t, c.Events())
	})

	t.Run("sharded", func(t *testing.T) {
		c := NewShardedCollector(4)
		batch := ownershipBatch(n)
		RecordAll(c, batch)
		clobber(batch)
		c.Close()
		verify(t, c.Events())
	})
}

// TestShardSinkBatchReuse documents the receiving half of the contract: the
// ColumnBatch a ShardSink is handed is drain scratch, reused for the next
// wakeup. A sink that stashes the pointer (instead of folding or copying)
// reads whatever the next drain put there.
func TestShardSinkBatchReuse(t *testing.T) {
	type delivery struct {
		batch *ColumnBatch
		first Event
	}
	got := make(chan delivery) // unbuffered: sink blocks until the test looks
	sink := func(shard int, b *ColumnBatch) {
		got <- delivery{batch: b, first: b.At(0)}
	}
	c := NewStreamingShardedCollector(1, 64, Block(), false, sink)

	c.Record(Event{Seq: 1, Instance: 7, Op: OpRead})
	d1 := <-got
	c.Record(Event{Seq: 2, Instance: 8, Op: OpWrite})
	d2 := <-got
	// Drain any tail deliveries so Close's final flush cannot block.
	go func() {
		for range got {
		}
	}()
	c.Close()

	if d1.batch != d2.batch {
		t.Fatalf("drain allocated a new batch per sink call (%p then %p); expected reuse of the drain scratch", d1.batch, d2.batch)
	}
	if d1.first.Instance != 7 || d2.first.Instance != 8 {
		t.Fatalf("sink saw wrong events: %+v then %+v", d1.first, d2.first)
	}
	// The pointer d1 retained no longer holds d1's event — retaining is
	// exactly what the contract forbids.
	if d1.batch.Len() > 0 && d1.batch.At(0) == d1.first {
		t.Log("note: retained batch still shows the first delivery; reuse not observed this run")
	}
}

// keepingColumns is a ColumnRecorder that keeps every batch it is handed,
// with a deep copy taken at hand-off to compare against later.
type keepingColumns struct {
	kept  []*ColumnBatch
	snaps []ColumnBatch
}

func (k *keepingColumns) Record(Event)        { panic("keepingColumns: Record") }
func (k *keepingColumns) RecordBatch([]Event) { panic("keepingColumns: RecordBatch") }
func (k *keepingColumns) ColumnShards() int   { return 2 }
func (k *keepingColumns) RecordColumns(_ int, b *ColumnBatch) {
	var snap ColumnBatch
	snap.AppendRange(b, 0, b.Len())
	k.kept = append(k.kept, b)
	k.snaps = append(k.snaps, snap)
}

// TestColumnRecorderOwnership enforces the ColumnRecorder contract from the
// producer's side: a batch handed over through RecordColumns belongs to the
// callee, so a recorder that keeps every batch must find each one unchanged
// after the producer has gone on to emit 10 more flushes.
func TestColumnRecorderOwnership(t *testing.T) {
	rec := &keepingColumns{}
	s := NewSessionWith(Options{Recorder: rec})
	p := s.Bind()
	emit := func(flushes int) {
		for i := 0; i < flushes*DefaultBatchSize; i++ {
			p.Emit(InstanceID(1+i%3), Op(1+i%4), i, -i)
		}
	}
	emit(1)
	handed := len(rec.kept)
	if handed != 2 {
		t.Fatalf("first flush handed over %d batches, want 2 (one per shard)", handed)
	}
	emit(10)
	p.Close()
	for i, b := range rec.kept {
		want := &rec.snaps[i]
		if b.Len() != want.Len() {
			t.Fatalf("batch %d: length %d after later flushes, %d at hand-off", i, b.Len(), want.Len())
		}
		for j := 0; j < b.Len(); j++ {
			if b.At(j) != want.At(j) {
				t.Fatalf("batch %d event %d: %+v after later flushes, %+v at hand-off", i, j, b.At(j), want.At(j))
			}
		}
	}
	if got := len(rec.kept); got != 2*11 {
		t.Fatalf("%d batches handed over, want %d", got, 2*11)
	}
}
