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
