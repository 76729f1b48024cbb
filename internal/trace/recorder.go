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

// EventSource is implemented by recorders that can hand the collected events
// back for analysis.
type EventSource interface {
	// Events returns the collected events ordered by sequence number.
	Events() []Event
}

// BatchRecorder is the optional bulk interface of the hot path: recorders
// that can take a whole producer batch in one call implement it so the
// per-event lock, channel, and dispatch costs amortize over the batch.
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
