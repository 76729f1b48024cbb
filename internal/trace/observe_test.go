package trace

import (
	"strings"
	"testing"
	"time"

	"dsspy/internal/obs"
)

func TestTimedRecorder(t *testing.T) {
	mem := NewMemRecorder()
	tr := NewTimedRecorder(mem, 4)
	const n = 100
	for i := 0; i < n; i++ {
		tr.Record(Event{Seq: uint64(i)})
	}
	if tr.Count() != n {
		t.Fatalf("count = %d, want %d", tr.Count(), n)
	}
	if got, want := tr.Sampled(), uint64(n/4); got != want {
		t.Fatalf("sampled = %d, want %d", got, want)
	}
	if len(mem.Events()) != n {
		t.Fatalf("wrapped recorder got %d events, want %d", len(mem.Events()), n)
	}
	h := tr.Hist()
	if h.Count != uint64(n/4) || h.Max < 0 {
		t.Fatalf("hist = %+v", h)
	}

	var sb strings.Builder
	w := obs.NewPromWriter(&sb)
	tr.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dsspy_record_calls_total 100", "dsspy_record_seconds_count 25"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

func TestShardedCollectorObservability(t *testing.T) {
	c := NewShardedCollectorSize(2, 64)
	tracer := obs.NewTracer(256)
	c.SetTracer(tracer)
	c.EnableQueueSampling(time.Millisecond)
	for i := 0; i < 500; i++ {
		c.Record(Event{Seq: uint64(i), Instance: InstanceID(i % 7)})
	}
	// Give the sampler a few ticks while the collector is live.
	time.Sleep(20 * time.Millisecond)
	c.Close()

	if tracer.Total() == 0 {
		t.Fatal("no drain spans recorded")
	}
	cs := c.Stats()
	if len(cs.ShardQueueDepth) != 2 {
		t.Fatalf("ShardQueueDepth len = %d, want 2", len(cs.ShardQueueDepth))
	}
	if cs.QueueSampleInterval != time.Millisecond {
		t.Fatalf("sample interval = %v", cs.QueueSampleInterval)
	}
	var sb strings.Builder
	if err := cs.Write(&sb); err != nil {
		t.Fatal(err)
	}

	var mb strings.Builder
	w := obs.NewPromWriter(&mb)
	c.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dsspy_collector_events_total{shard="0"}`,
		`dsspy_collector_queue_high_water{shard="1"}`,
		`dsspy_collector_queue_depth_count{shard="0"}`,
		`dsspy_columnar_drain_batch_events_count`,
		`dsspy_columnar_inflations_avoided_total`,
		`dsspy_columnar_merge_splits_total`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb.String())
		}
	}
}

func TestCollectorServerObservability(t *testing.T) {
	tracer := obs.NewTracer(64)
	srv, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		Tracer:         tracer,
		SampleInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DialCollector("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec.Record(Event{Seq: uint64(i)})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	srv.WaitStreams(1)
	deadline := time.Now().Add(2 * time.Second)
	for srv.sampler.Samples() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var mb strings.Builder
	w := obs.NewPromWriter(&mb)
	srv.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsspy_server_conns_accepted_total 1",
		"dsspy_server_events_stored 10",
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb.String())
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if tracer.Total() == 0 {
		t.Fatal("no connection spans recorded")
	}
	ss := srv.ServerStats()
	if ss.StoreDepth.Count == 0 && ss.ActiveConns.Count == 0 {
		t.Fatal("sampler recorded nothing")
	}
}

// columnSpy is a ColumnRecorder that records how it was called and returns
// every batch it is handed to the pool.
type columnSpy struct {
	shards       int
	columns      int // RecordColumns calls
	events       int // events across those calls
	other        int // Record/RecordBatch calls
	misdelivered int // events handed to a shard that does not own them
}

func (c *columnSpy) Record(Event)        { c.other++ }
func (c *columnSpy) RecordBatch([]Event) { c.other++ }
func (c *columnSpy) ColumnShards() int   { return c.shards }
func (c *columnSpy) RecordColumns(shard int, b *ColumnBatch) {
	c.columns++
	c.events += b.Len()
	for _, id := range b.Instance {
		if int(id)%c.shards != shard {
			c.misdelivered++
		}
	}
	releaseColumns(b)
}

// TestTimedRecorderForwardsColumns pins the wrapper's column form: a
// producer writing through a TimedRecorder over a ColumnRecorder reaches it
// only through RecordColumns — never the []Event adapter — and the wrapper
// counts and samples those hand-offs exactly as it does RecordBatch.
func TestTimedRecorderForwardsColumns(t *testing.T) {
	const flushes = 50
	for _, every := range []int{1, 100} {
		spy := &columnSpy{shards: 3}
		tr := NewTimedRecorder(spy, every)
		if got := tr.ColumnShards(); got != 3 {
			t.Fatalf("ColumnShards = %d, want the wrapped recorder's 3", got)
		}
		s := NewSessionWith(Options{Recorder: tr})
		p := s.Bind()
		for i := 0; i < flushes*DefaultBatchSize; i++ {
			p.Emit(InstanceID(1+i%3), OpRead, i, i)
		}
		p.Close()

		if spy.other != 0 {
			t.Fatalf("every=%d: wrapped recorder saw %d Record/RecordBatch calls, want only RecordColumns", every, spy.other)
		}
		if spy.misdelivered != 0 {
			t.Fatalf("every=%d: %d events reached a shard that does not own their instance", every, spy.misdelivered)
		}
		if want := flushes * 3; spy.columns != want {
			t.Fatalf("every=%d: %d RecordColumns calls, want %d (one per shard per flush)", every, spy.columns, want)
		}
		if got := tr.Count(); got != uint64(spy.events) || got != flushes*DefaultBatchSize {
			t.Fatalf("every=%d: Count = %d, wrapped recorder saw %d, emitted %d", every, got, spy.events, flushes*DefaultBatchSize)
		}
		// Interleaving 3 instances over 64-event flushes gives per-shard
		// batches of 22, 21 and 21 events in turn; a hand-off is sampled
		// when the running count crosses a multiple of every.
		var c, want uint64
		for f := 0; f < flushes; f++ {
			for _, n := range []uint64{22, 21, 21} {
				if (c+n)/uint64(every) != c/uint64(every) {
					want++
				}
				c += n
			}
		}
		if got := tr.Sampled(); got != want {
			t.Fatalf("every=%d: Sampled = %d, want %d", every, got, want)
		}
	}
}

// TestTimedRecorderWithoutColumnForm: over a recorder with no column form
// the wrapper reports none, so producers keep the RecordAll path, and a
// stray RecordColumns is inflated rather than lost.
func TestTimedRecorderWithoutColumnForm(t *testing.T) {
	mem := NewMemRecorder()
	tr := NewTimedRecorder(mem, 1)
	if got := tr.ColumnShards(); got != 0 {
		t.Fatalf("ColumnShards over a MemRecorder = %d, want 0", got)
	}
	b := pooledColumns(3)
	for i := 0; i < 3; i++ {
		b.Append(Event{Seq: uint64(i + 1), Instance: 1, Op: OpRead, Index: i})
	}
	tr.RecordColumns(0, b)
	if got := mem.Len(); got != 3 || tr.Count() != 3 {
		t.Fatalf("MemRecorder got %d events, Count = %d; want 3 and 3", got, tr.Count())
	}
}
