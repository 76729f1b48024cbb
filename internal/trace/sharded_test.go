package trace

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestShardedCollectorPartitionsByInstance(t *testing.T) {
	const shards = 4
	c := NewShardedCollectorSize(shards, 8)
	if c.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", c.NumShards(), shards)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		c.Record(Event{Seq: uint64(i + 1), Instance: InstanceID(i % 7), Op: OpRead})
	}
	c.Close()
	total := 0
	for si, sh := range c.shards {
		total += sh.cols.Len()
		for _, id := range sh.cols.Instance {
			if int(id)%shards != si {
				t.Fatalf("instance %d landed in shard %d", id, si)
			}
		}
	}
	if total != n {
		t.Fatalf("shards hold %d events, want %d", total, n)
	}
}

// TestRecordBatchPartitionsAcrossScatterGroups covers collectors wider than
// one scatter pass: every event of a flush must still land in the shard that
// owns its instance, in flush order.
func TestRecordBatchPartitionsAcrossScatterGroups(t *testing.T) {
	const shards = scatterGroup + 4
	c := NewShardedCollector(shards)
	batch := make([]Event, DefaultBatchSize)
	const flushes = 50
	for f := 0; f < flushes; f++ {
		for i := range batch {
			seq := uint64(f*len(batch) + i + 1)
			batch[i] = Event{Seq: seq, Instance: InstanceID(seq * 7 % (2 * shards)), Op: OpRead}
		}
		c.RecordBatch(batch)
	}
	c.Close()
	total := 0
	for si, sh := range c.shards {
		total += sh.cols.Len()
		for i, id := range sh.cols.Instance {
			if int(id)%shards != si {
				t.Fatalf("instance %d landed in shard %d", id, si)
			}
			if i > 0 && sh.cols.Seq[i] <= sh.cols.Seq[i-1] {
				t.Fatalf("shard %d holds seq %d after %d", si, sh.cols.Seq[i], sh.cols.Seq[i-1])
			}
		}
	}
	if total != flushes*DefaultBatchSize {
		t.Fatalf("shards hold %d events, want %d", total, flushes*DefaultBatchSize)
	}
}

func TestShardedCollectorEventsMergedAndSorted(t *testing.T) {
	c := NewShardedCollectorSize(3, 16)
	s := NewSessionWith(Options{Recorder: c})
	const producers, perProducer = 6, 3000
	ids := make([]InstanceID, producers)
	for i := range ids {
		ids[i] = s.Register(KindList, "List[int]", "", 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(id InstanceID) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Emit(id, OpInsert, i, i+1)
			}
		}(ids[w])
	}
	wg.Wait()
	c.Close()
	c.Close() // idempotent

	events := c.Events()
	if len(events) != producers*perProducer {
		t.Fatalf("merged %d events, want %d", len(events), producers*perProducer)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: seq %d", i, e.Seq)
		}
	}
	if got := c.Len(); got != producers*perProducer {
		t.Fatalf("Len = %d, want %d", got, producers*perProducer)
	}
}

func TestShardedCollectorLiveSnapshot(t *testing.T) {
	c := NewShardedCollector(2)
	const n = 500
	for i := 0; i < n; i++ {
		c.Record(Event{Seq: uint64(i + 1), Instance: InstanceID(i % 3), Op: OpRead})
	}
	// The drain goroutines race with us; the snapshot must be sorted and
	// hold at most what was recorded.
	live := c.Events()
	if len(live) > n {
		t.Fatalf("live snapshot has %d events, more than the %d recorded", len(live), n)
	}
	if !sort.SliceIsSorted(live, func(i, j int) bool { return live[i].Seq < live[j].Seq }) {
		t.Fatal("live snapshot not in sequence order")
	}
	c.Close()
	if got := len(c.Events()); got != n {
		t.Fatalf("after Close: %d events, want %d", got, n)
	}
}

func TestShardedCollectorStats(t *testing.T) {
	c := NewShardedCollectorSize(2, 4) // tiny buffers to force producer blocking
	s := NewSessionWith(Options{Recorder: c})
	id1 := s.Register(KindList, "List[int]", "", 0)
	id2 := s.Register(KindList, "List[int]", "", 0)
	const n = 5000
	for i := 0; i < n; i++ {
		s.Emit(id1, OpInsert, i, i+1)
		s.Emit(id2, OpInsert, i, i+1)
	}
	c.Close()
	cs := c.Stats()
	if cs.Shards != 2 || cs.Buffer != 4 {
		t.Fatalf("stats shape = %d shards × %d, want 2 × 4", cs.Shards, cs.Buffer)
	}
	if cs.Events != 2*n {
		t.Fatalf("stats events = %d, want %d", cs.Events, 2*n)
	}
	var sum uint64
	for i := range cs.ShardRecorded {
		sum += cs.ShardRecorded[i]
		if cs.ShardHighWater[i] < 0 || cs.ShardHighWater[i] > 4 {
			t.Fatalf("shard %d high-water %d out of [0,4]", i, cs.ShardHighWater[i])
		}
	}
	if sum != cs.Events {
		t.Fatalf("per-shard events sum %d != total %d", sum, cs.Events)
	}
}

// TestAsyncCollectorSortsOnceAtClose is the regression test for the old
// behavior of re-sorting the full copy on every Events call: Close must seal
// the sequence order so that Events afterwards is one copy, no sort.
func TestAsyncCollectorSortsOnceAtClose(t *testing.T) {
	c := NewShardedCollectorSize(1, 1<<12)
	// Feed sequence numbers in shuffled order, as interleaved producers
	// would.
	perm := rand.New(rand.NewSource(7)).Perm(2000)
	for _, p := range perm {
		c.Record(Event{Seq: uint64(p + 1), Instance: 1, Op: OpRead})
	}
	c.Close()

	// White box: Close must have left the internal store in final sequence
	// order, so Events() needs no sort.
	merged := c.MergedColumns()
	if merged == nil {
		t.Fatal("Close did not seal the merged order")
	}
	if !merged.IsSortedBySeq() {
		t.Fatal("internal store not sorted after Close")
	}

	first := c.Events()
	if len(first) != len(perm) {
		t.Fatalf("Events returned %d events, want %d", len(first), len(perm))
	}
	for i, e := range first {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: seq %d", i, e.Seq)
		}
	}
	// Each call must return an independent copy of the cached order.
	first[0].Seq = 999999
	second := c.Events()
	if second[0].Seq != 1 {
		t.Fatal("Events does not copy: caller mutation leaked into the store")
	}
}

func TestAsyncCollectorStats(t *testing.T) {
	c := NewShardedCollector(1)
	for i := 0; i < 100; i++ {
		c.Record(Event{Seq: uint64(i + 1), Instance: 1, Op: OpWrite})
	}
	c.Close()
	cs := c.Stats()
	if cs.Shards != 1 || cs.Events != 100 {
		t.Fatalf("stats = %d shards, %d events; want 1 shard, 100 events", cs.Shards, cs.Events)
	}
}

// interleavedBatch fills batch with events whose instances alternate between
// 1 and 2 — owned by different shards of a 2-shard collector — the
// instance-interleaving shape of the Table IV programs (Mandelbrot reads two
// arrays in lock step).
func interleavedBatch(batch []Event, base uint64) {
	for i := range batch {
		batch[i] = Event{Seq: base + uint64(i) + 1, Instance: InstanceID(1 + i%2), Op: OpRead, Index: i, Size: len(batch)}
	}
}

// batchOnly shows a collector to producers through the []Event interfaces
// alone, so they take the RecordBatch adapter.
type batchOnly struct{ c *ShardedCollector }

func (r batchOnly) Record(e Event)        { r.c.Record(e) }
func (r batchOnly) RecordBatch(b []Event) { r.c.RecordBatch(b) }

// TestRecordBatchScattersWholeShardSlots is the regression test for batch
// shredding: a flush that alternates instances across two shards must reach
// each shard as one slot, not as a run per instance switch. A Bind producer
// flushes 64-event batches, 32 per shard, and every sink batch must be a
// whole number of those per-shard halves — through the producer's column
// hand-off and through the RecordBatch adapter alike.
func TestRecordBatchScattersWholeShardSlots(t *testing.T) {
	for _, adapter := range []bool{false, true} {
		var mu sync.Mutex
		var sizes []int
		c := NewStreamingShardedCollector(2, DefaultAsyncBuffer, Block(), false, func(_ int, b *ColumnBatch) {
			mu.Lock()
			sizes = append(sizes, b.Len())
			mu.Unlock()
		})
		var rec Recorder = c
		if adapter {
			rec = batchOnly{c}
		}
		s := NewSessionWith(Options{Recorder: rec})
		ids := [2]InstanceID{s.Register(KindList, "List[int]", "", 0), s.Register(KindList, "List[int]", "", 0)}
		if int(ids[0])%2 == int(ids[1])%2 {
			t.Fatalf("instances %d and %d share a shard", ids[0], ids[1])
		}
		p := s.Bind()
		const flushes = 200
		for i := 0; i < flushes*DefaultBatchSize; i++ {
			p.Emit(ids[i%2], OpRead, i, i)
		}
		p.Close()
		c.Close()

		total := 0
		for _, n := range sizes {
			if n%(DefaultBatchSize/2) != 0 {
				t.Fatalf("adapter=%t: sink batch of %d events: a producer flush was split below its per-shard slot (sizes %v)", adapter, n, sizes)
			}
			total += n
		}
		if total != flushes*DefaultBatchSize {
			t.Fatalf("adapter=%t: sink saw %d events, want %d", adapter, total, flushes*DefaultBatchSize)
		}
	}
}

// TestRecordBatchZeroAlloc guards the scatter: once the batch pool is warm,
// handing a flush that spans every shard to the collector allocates nothing.
// Two slots per shard bound the batches in flight, so the warm-up fills the
// pool with every batch the steady state ever holds at once.
func TestRecordBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	c := NewStreamingShardedCollector(2, 2*DefaultBatchSize, Block(), false, func(int, *ColumnBatch) {})
	defer c.Close()
	batch := make([]Event, DefaultBatchSize)
	interleavedBatch(batch, 0)
	for i := 0; i < 100; i++ {
		c.RecordBatch(batch)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.RecordBatch(batch) }); allocs != 0 {
		t.Fatalf("steady-state RecordBatch allocates %.1f times per flush, want 0", allocs)
	}
}

// TestProducerColumnsZeroAlloc guards the column hand-off: once the batch
// pool is warm, 64 Emits that alternate instances across a 2-shard
// collector plus the Flush that hands both shard batches over allocate
// nothing — the producer writes into pooled columns, the drain delivers
// them to the sink and returns them to the pool.
func TestProducerColumnsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	c := NewStreamingShardedCollector(2, 2*DefaultBatchSize, Block(), false, func(int, *ColumnBatch) {})
	defer c.Close()
	s := NewSessionWith(Options{Recorder: c})
	p := s.Bind()
	defer p.Close()
	flush := func() {
		for i := 0; i < DefaultBatchSize; i++ {
			p.Emit(InstanceID(1+i%2), OpRead, i, DefaultBatchSize)
		}
		p.Flush()
	}
	for i := 0; i < 100; i++ {
		flush()
	}
	if allocs := testing.AllocsPerRun(1000, flush); allocs != 0 {
		t.Fatalf("steady-state Emit+Flush allocates %.1f times per flush, want 0", allocs)
	}
}

// BenchmarkProducerFlushInterleaved measures the whole producer-to-sink path
// of the column hand-off: a Bind producer emits events whose instances
// alternate across a 2-shard collector, the Mandelbrot shape, and each
// 64-event flush hands one column batch per shard to the (no-op) sink. The
// timed region includes Close, so every event has reached the sink. Compare
// BenchmarkRecordBatchInterleaved, which prices only the []Event adapter.
func BenchmarkProducerFlushInterleaved(b *testing.B) {
	c := NewStreamingShardedCollector(2, DefaultAsyncBuffer, Block(), false, func(int, *ColumnBatch) {})
	s := NewSessionWith(Options{Recorder: c})
	p := s.Bind()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < DefaultBatchSize; j++ {
			p.Emit(InstanceID(1+j%2), OpRead, j, DefaultBatchSize)
		}
	}
	p.Close()
	c.Close()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultBatchSize), "ns/event")
}

// BenchmarkRecordBatchInterleaved measures the producer-to-sink hand-off of
// 64-event flushes whose instances alternate across a 2-shard collector, the
// Mandelbrot shape. The timed region includes Close, so every event has
// crossed the shard boundary and reached the (no-op) sink.
func BenchmarkRecordBatchInterleaved(b *testing.B) {
	c := NewStreamingShardedCollector(2, DefaultAsyncBuffer, Block(), false, func(int, *ColumnBatch) {})
	batch := make([]Event, DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interleavedBatch(batch, uint64(i)*DefaultBatchSize)
		c.RecordBatch(batch)
	}
	c.Close()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultBatchSize), "ns/event")
}
