package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder is the sink for access events. Record must be safe for concurrent
// use; the paper's design point is that recording only appends raw events and
// all analysis happens post-mortem, keeping the in-line slowdown bounded.
type Recorder interface {
	Record(Event)
}

// BatchRecorder is the optional []Event bulk interface: recorders that can
// take a whole batch in one call implement it so the per-event lock,
// channel, and dispatch costs amortize over the batch. A Producer uses it
// for recorders without the column form (ColumnRecorder).
//
// Ownership contract: RecordBatch must be safe for concurrent use and must
// NOT retain the slice (or any sub-slice of it) after returning — the caller
// (a Producer, a socket buffer, a replaying spill file) overwrites it
// immediately. An implementation that needs the events past return — because
// it hands them to another goroutine (ShardedCollector), or
// stores them (MemRecorder) — must copy them out synchronously, before
// RecordBatch returns. Forwarding the same slice to a nested recorder within
// the call (TeeRecorder, FilterRecorder) is fine: the contract transfers,
// it does not stack. TestBatchRecorderOwnership clobbers the slice right
// after every RecordAll to enforce this on each implementation.
type BatchRecorder interface {
	RecordBatch([]Event)
}

// ColumnRecorder is the zero-copy form of the hot path: a Producer that
// finds it on its session's recorder writes kept events straight into one
// pooled ColumnBatch per shard and hands each over whole at Flush, so no
// []Event buffer, scatter or drain copy sits between the container and the
// fold.
//
// ColumnShards returns the number of shards the recorder partitions by; the
// producer sends every event of instance id in the batch for shard
// int(id) % ColumnShards(). It must not change over the recorder's
// lifetime. A wrapper whose inner recorder has no column form returns 0,
// and the producer falls back to RecordAll.
//
// Ownership contract: RecordColumns must be safe for concurrent use, and the
// callee owns b after the call — it may keep it, hand it to another
// goroutine, or drop it; recorders in this package return it to the batch
// pool once done. The caller never touches b again. Within b, events are in
// program order with Seq already stamped.
type ColumnRecorder interface {
	ColumnShards() int
	RecordColumns(shard int, b *ColumnBatch)
}

// columnShards returns the number of shards rec takes column batches for, or
// 0 when rec has no column form.
func columnShards(rec Recorder) int {
	if cr, ok := rec.(ColumnRecorder); ok {
		return cr.ColumnShards()
	}
	return 0
}

// recordColumns hands b to rec, through its column form when it has one and
// inflated through RecordAll otherwise; either way b belongs to the callee.
// Wrappers forward with it so a nested recorder without the column form
// still gets every event.
func recordColumns(rec Recorder, shard int, b *ColumnBatch) {
	if cr, ok := rec.(ColumnRecorder); ok && cr.ColumnShards() > 0 {
		cr.RecordColumns(shard, b)
		return
	}
	RecordAll(rec, b.Events(nil))
	releaseColumns(b)
}

// RecordAll delivers a batch through rec, using RecordBatch when the
// recorder supports it and falling back to per-event Record otherwise. The
// batch slice is only valid for the duration of the call; once RecordAll
// returns, the caller may overwrite it (see BatchRecorder's ownership
// contract).
func RecordAll(rec Recorder, batch []Event) {
	if br, ok := rec.(BatchRecorder); ok {
		br.RecordBatch(batch)
		return
	}
	for _, e := range batch {
		rec.Record(e)
	}
}

// MemRecorder collects events in memory under a mutex. It is the default
// recorder: simple, deterministic, and fast enough for every workload in the
// evaluation.
type MemRecorder struct {
	mu     sync.Mutex
	events []Event
	aggs   []AggRecord
}

// NewMemRecorder returns an empty in-memory recorder.
func NewMemRecorder() *MemRecorder { return &MemRecorder{} }

// Record appends the event.
func (m *MemRecorder) Record(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// RecordBatch appends the whole batch under one lock acquisition.
func (m *MemRecorder) RecordBatch(batch []Event) {
	m.mu.Lock()
	m.events = append(m.events, batch...)
	m.mu.Unlock()
}

// Events returns the collected events sorted by sequence number. With
// concurrent producers, arrival order in the slice can differ from sequence
// order; sorting restores the chronological order the profiles need.
func (m *MemRecorder) Events() []Event {
	m.mu.Lock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of recorded events.
func (m *MemRecorder) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// RecordAggregate retains a flushed lazy-aggregation record
// (AggregateRecorder); sessions without an AggregateSink land them here.
func (m *MemRecorder) RecordAggregate(rec AggRecord) {
	m.mu.Lock()
	m.aggs = append(m.aggs, rec)
	m.mu.Unlock()
}

// Aggregates returns the retained aggregate records in arrival order.
func (m *MemRecorder) Aggregates() []AggRecord {
	m.mu.Lock()
	out := make([]AggRecord, len(m.aggs))
	copy(out, m.aggs)
	m.mu.Unlock()
	return out
}

// Reset discards all recorded events and aggregates.
func (m *MemRecorder) Reset() {
	m.mu.Lock()
	m.events = nil
	m.aggs = nil
	m.mu.Unlock()
}

// NullRecorder discards every event. Instrumented containers driven through a
// NullRecorder measure the pure interception overhead, and plain containers
// measure the baseline; Table IV's slowdown column compares the two.
type NullRecorder struct{}

// Record discards the event.
func (NullRecorder) Record(Event) {}

// RecordBatch discards the batch.
func (NullRecorder) RecordBatch([]Event) {}

// ColumnShards reports one shard: a producer hands its whole flush over as
// one column batch.
func (NullRecorder) ColumnShards() int { return 1 }

// RecordColumns discards the batch, returning it to the pool.
func (NullRecorder) RecordColumns(_ int, b *ColumnBatch) { releaseColumns(b) }

// CountingRecorder counts events per access type without storing them.
// It is useful for cheap sanity checks and for the overhead ablation.
type CountingRecorder struct {
	counts [numOps]atomic.Uint64
}

// NewCountingRecorder returns a zeroed counting recorder.
func NewCountingRecorder() *CountingRecorder { return &CountingRecorder{} }

// Record increments the counter for the event's access type.
func (c *CountingRecorder) Record(e Event) {
	if e.Op < numOps {
		c.counts[e.Op].Add(1)
	}
}

// RecordBatch increments the per-op counters for every event in the batch.
func (c *CountingRecorder) RecordBatch(batch []Event) {
	for _, e := range batch {
		if e.Op < numOps {
			c.counts[e.Op].Add(1)
		}
	}
}

// ColumnShards reports one shard: a producer hands its whole flush over as
// one column batch.
func (c *CountingRecorder) ColumnShards() int { return 1 }

// RecordColumns counts the batch's Op column, one atomic add per access
// type present, and returns the batch to the pool.
func (c *CountingRecorder) RecordColumns(_ int, b *ColumnBatch) {
	var n [numOps]uint64
	for _, op := range b.Op {
		if op < numOps {
			n[op]++
		}
	}
	for op, k := range n {
		if k != 0 {
			c.counts[op].Add(k)
		}
	}
	releaseColumns(b)
}

// Count returns the number of events recorded with access type op.
func (c *CountingRecorder) Count(op Op) uint64 {
	if op >= numOps {
		return 0
	}
	return c.counts[op].Load()
}

// Total returns the number of events recorded across all access types.
func (c *CountingRecorder) Total() uint64 {
	var n uint64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// TeeRecorder forwards every event to all of its children.
type TeeRecorder []Recorder

// Record forwards the event to each child recorder in order.
func (t TeeRecorder) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// RecordBatch forwards the batch to each child recorder in order, using the
// child's bulk path when it has one.
func (t TeeRecorder) RecordBatch(batch []Event) {
	for _, r := range t {
		RecordAll(r, batch)
	}
}

// FilterRecorder forwards only events for which Keep returns true. The
// selective-profiler mode of DSspy ("an engineer can use DSspy as a selective
// profiler that only analyzes instances that he manually instrumented") is a
// FilterRecorder over a set of instance ids.
type FilterRecorder struct {
	Keep func(Event) bool
	Next Recorder
}

// Record forwards e to Next when Keep(e) is true.
func (f FilterRecorder) Record(e Event) {
	if f.Keep(e) {
		f.Next.Record(e)
	}
}

// RecordBatch forwards the kept events to Next as contiguous sub-batches,
// without copying or mutating the caller's slice.
func (f FilterRecorder) RecordBatch(batch []Event) {
	start := -1
	for i, e := range batch {
		if f.Keep(e) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			RecordAll(f.Next, batch[start:i])
			start = -1
		}
	}
	if start >= 0 {
		RecordAll(f.Next, batch[start:])
	}
}

// InstanceFilter returns a FilterRecorder that keeps only events raised by
// the given instances.
func InstanceFilter(next Recorder, ids ...InstanceID) FilterRecorder {
	set := make(map[InstanceID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return FilterRecorder{
		Keep: func(e Event) bool { return set[e.Instance] },
		Next: next,
	}
}
