package trace

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsspy/internal/obs"
)

// ShardedCollector is the paper's collector design (§IV): producers hand
// events over asynchronous communication to separate consumers, so the
// instrumented program is never blocked on analysis or I/O. It partitions
// the event stream by InstanceID into N shards, each with its own buffer and
// drain goroutine; the one-shard case is the paper's single-channel
// collector. Producers touching different instances never contend on a
// shared channel, and all events of one instance land in exactly one shard,
// so a streaming sink folds each instance shard-locally.
//
// Producers call Record for one event, or hand one flush over as a column
// batch per shard (RecordColumns, from a Producer) or as a []Event
// (RecordBatch, the adapter for wrappers); either way each shard it touches
// receives one message on its one channel, so a goroutine's events reach
// each shard in the order it sent them. Close flushes every shard and stops
// the drain goroutines. Events merges the shards back into one Seq-ordered
// stream for callers that need the flat post-mortem view (session logs,
// replay).

// DefaultAsyncBuffer is the default per-shard buffer, in events. A shard's
// channel holds buf/DefaultBatchSize slots (at least 2), each carrying one
// Bind producer flush's share for the shard or one single event, so the
// buffer is buf events when Bind producers flush full batches. A sole
// producer's batches (BindDefault, up to soleBatchSize events each) also
// need a room token (soleRoom), so they never fill more than half the
// buffer — or one batch when that is smaller. Large enough that bursts
// (tight instrumented loops) rarely block the producer, small enough not
// to dominate memory.
const DefaultAsyncBuffer = 1 << 16

// soleRoom is the number of a sole producer's batches a shard with a
// buf-event buffer queues: enough for half the buffer, at least one. At the
// default buffer that is 32 batches of 1024 events. The depth is measured
// (EXPERIMENTS.md, "Sole-producer hand-off"): 16 batches block the producer
// often enough to cost throughput on the Table IV apps, while 64 buy none
// over 32 and allocate about a fifth more per event, because each GC
// empties the column pool and every batch then in flight is fresh memory.
func soleRoom(buf int) int { return max(1, buf/(2*soleBatchSize)) }

// OverloadPolicy decides what happens when a producer finds its shard's
// buffer full — all buf/DefaultBatchSize slots taken, each holding one
// batch or one event, or, for a sole producer's batch, all room tokens
// taken. The policy applies per slot: a flush's share for one
// shard is blocked on, dropped or sampled as a unit. Whatever the choice,
// every event is accounted for: delivered events land in the store,
// everything else increments the drop counters in CollectorStats, so
// delivered + dropped == recorded always holds.
type OverloadPolicy struct {
	kind uint8
	n    uint64
}

const (
	overloadBlock = iota
	overloadDrop
	overloadSample
)

// Block returns the lossless default: a producer hitting a full buffer
// blocks until the drain goroutine catches up, matching the paper's
// requirement that profiles be complete "from initialization to
// deallocation".
func Block() OverloadPolicy { return OverloadPolicy{kind: overloadBlock} }

// DropNewest returns the bounded-latency policy: a producer hitting a full
// buffer drops the slot's events (counted) instead of blocking. Producer
// block time is zero by construction; profiles may have gaps.
func DropNewest() OverloadPolicy { return OverloadPolicy{kind: overloadDrop} }

// Sample returns the degraded-fidelity policy: when the buffer is full, one
// in n overflowing slots is delivered (blocking for it) and the rest are
// dropped and counted. n <= 1 behaves like Block.
func Sample(n int) OverloadPolicy {
	if n <= 1 {
		return Block()
	}
	return OverloadPolicy{kind: overloadSample, n: uint64(n)}
}

// String renders the policy the way the -overload flag spells it.
func (p OverloadPolicy) String() string {
	switch p.kind {
	case overloadDrop:
		return "drop"
	case overloadSample:
		return fmt.Sprintf("sample:%d", p.n)
	default:
		return "block"
	}
}

// ParseOverloadPolicy parses "block", "drop", or "sample:N".
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch {
	case s == "" || s == "block":
		return Block(), nil
	case s == "drop":
		return DropNewest(), nil
	case strings.HasPrefix(s, "sample:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "sample:"))
		if err != nil || n < 1 {
			return Block(), fmt.Errorf("trace: bad sample rate in overload policy %q", s)
		}
		return Sample(n), nil
	default:
		return Block(), fmt.Errorf("trace: unknown overload policy %q (want block, drop, or sample:N)", s)
	}
}

type ShardedCollector struct {
	shards []*shard
	buf    int
	policy OverloadPolicy

	// tracer (optional, via SetTracer) records one span per sink delivery;
	// sampler (optional, via EnableQueueSampling) observes per-shard queue
	// depths into histograms. Both are inert when unset.
	tracer  atomic.Pointer[obs.Tracer]
	sampler *obs.OccupancySampler

	once   sync.Once
	closed atomic.Bool

	// drainHist observes the size of every batch the drains hand to the
	// store/sink; mergeSplits counts batch runs split at overlap boundaries
	// by the columnar k-way merge. Both feed the dsspy_columnar_* metrics.
	drainHist   *obs.Histogram
	mergeSplits atomic.Uint64

	mergeOnce  sync.Once
	mergedCols *ColumnBatch
}

// ShardSink consumes column batches from one shard's drain goroutine. Each
// shard has exactly one drain goroutine, so calls for a given shard index are
// serialized (calls for different shards are concurrent). The batch and its
// columns are reused between calls — a sink must fold or copy the events,
// never retain the batch or any of its column slices.
type ShardSink func(shard int, batch *ColumnBatch)

// slot is one message on a shard's channel: a pooled column batch carrying
// one producer flush's share for the shard, or — when b is nil — the single
// event e, carried by value so per-event Record pays no pool traffic.
type slot struct {
	b *ColumnBatch
	e Event
}

// len returns the number of events the slot carries.
func (s slot) len() int {
	if s.b == nil {
		return 1
	}
	return s.b.Len()
}

// release returns a refused slot's batch to the pool.
func (s slot) release() {
	if s.b != nil {
		releaseColumns(s.b)
	}
}

// shard is one partition: a buffered channel of slots drained by a dedicated
// goroutine into a shard-local store, plus the observability counters the
// pipeline stats report. There is one channel per shard, so everything one
// goroutine sends to a shard — single events and batches alike — reaches the
// drain in send order.
type shard struct {
	ch   chan slot
	done chan struct{}
	// room holds one token per sole-producer batch in ch: a sender puts
	// one in before sending such a batch, the drain takes it out on
	// receipt, so its capacity bounds the sole producer's queued events.
	room chan struct{}

	// id, sink and retain configure the drain destination: with a sink the
	// drain hands each batch to it; with retain the batch also lands in the
	// shard-local store (stream mode sets retain=false so memory stays
	// bounded by reducer state, not event count).
	id     int
	sink   ShardSink
	retain bool

	// tracer points at the collector's tracer slot; the drain goroutine reads
	// it per batch so SetTracer takes effect on a live collector. hist is the
	// collector-wide drain-batch-size histogram.
	tracer *atomic.Pointer[obs.Tracer]
	hist   *obs.Histogram

	// closeMu serializes Record against Close: Record holds the read side
	// while it touches the channel, Close takes the write side before
	// closing it. A Record that arrives after Close sees closed == true and
	// counts the event as dropped instead of panicking on a closed channel —
	// instrumented programs must never crash because profiling shut down
	// first.
	closeMu sync.RWMutex
	closed  bool

	// cols is the shard-local store, held columnar: batched events land
	// here with six column copies and are never inflated to Event structs
	// unless a post-mortem consumer asks for them.
	mu   sync.Mutex
	cols ColumnBatch

	count         atomic.Uint64
	dropped       atomic.Uint64
	droppedClosed atomic.Uint64
	overflow      atomic.Uint64
	highWater     atomic.Int64
	blockNS       atomic.Int64
	// inflight counts the events sitting in the channel: producers add a
	// slot's events after sending it, the drain subtracts them on receipt,
	// so it never exceeds what the channel really holds.
	inflight atomic.Int64
	// columnar counts events that crossed the shard boundary in columnar
	// batches — each is an Event inflation the drain never performed.
	columnar atomic.Uint64
}

func newShard(id, buf int, sink ShardSink, retain bool, tracer *atomic.Pointer[obs.Tracer], hist *obs.Histogram) *shard {
	sh := &shard{
		// buf events of full producer flushes; at least two slots, so a
		// producer can queue one while the drain works on another.
		ch:     make(chan slot, max(2, buf/DefaultBatchSize)),
		done:   make(chan struct{}),
		room:   make(chan struct{}, soleRoom(buf)),
		id:     id,
		sink:   sink,
		retain: retain,
		tracer: tracer,
		hist:   hist,
	}
	go sh.drain()
	return sh
}

// queued returns the number of events waiting in the shard's channel.
func (sh *shard) queued() int64 { return max(0, sh.inflight.Load()) }

// markHighWater raises the queue high-water mark to q if it grew.
func (sh *shard) markHighWater(q int64) {
	for {
		cur := sh.highWater.Load()
		if q <= cur || sh.highWater.CompareAndSwap(cur, q) {
			break
		}
	}
}

// send enqueues a slot, tracking producer block time and the queue
// high-water mark. The fast path is a single non-blocking send attempt; only
// when the queue is full does the overload policy decide between taking a
// timestamp and blocking, dropping, or sampling — applied to the slot as a
// unit (Sample delivers one in n overflowing slots). Accounting is per event
// either way: delivered + dropped == recorded.
func (sh *shard) send(s slot, pol OverloadPolicy) {
	n := uint64(s.len())
	sole := s.b != nil && s.b.sole
	sh.closeMu.RLock()
	defer sh.closeMu.RUnlock()
	sh.count.Add(n)
	if sh.closed {
		sh.droppedClosed.Add(n)
		s.release()
		return
	}
	if !sh.trySend(s, sole) {
		switch pol.kind {
		case overloadDrop:
			sh.dropped.Add(n)
			s.release()
			return
		case overloadSample:
			if sh.overflow.Add(1)%pol.n != 0 {
				sh.dropped.Add(n)
				s.release()
				return
			}
			fallthrough
		default:
			start := time.Now()
			if sole {
				sh.room <- struct{}{}
			}
			sh.ch <- s
			sh.blockNS.Add(int64(time.Since(start)))
		}
	}
	if q := sh.inflight.Add(int64(n)); q > sh.highWater.Load() {
		sh.markHighWater(q)
	}
}

// trySend enqueues s without blocking and reports whether it did. A sole
// producer's batch first takes a room token, and gives it back if the
// channel turns out full.
func (sh *shard) trySend(s slot, sole bool) bool {
	if sole {
		select {
		case sh.room <- struct{}{}:
		default:
			return false
		}
	}
	select {
	case sh.ch <- s:
		return true
	default:
		if sole {
			<-sh.room
		}
		return false
	}
}

// take handles one received slot. A single event joins the pooled working
// batch; a batch slot first delivers whatever single events were gathered
// before it — they were sent first — and is then delivered as it came and
// returned to the pool, so the sink sees the shard's FIFO order with no copy
// of the producer's columns.
func (sh *shard) take(work *ColumnBatch, s slot) {
	if s.b == nil {
		work.Append(s.e)
		sh.inflight.Add(-1)
		return
	}
	if work.Len() > 0 {
		sh.deliver(work)
		work.Reset()
	}
	n := s.b.Len()
	sh.inflight.Add(-int64(n))
	if s.b.sole {
		// After the count: a sender the token frees must not see this
		// batch's events still queued.
		<-sh.room
	}
	sh.columnar.Add(uint64(n))
	sh.deliver(s.b)
	releaseColumns(s.b)
}

// deliver hands one batch to the shard-local store and/or the sink.
func (sh *shard) deliver(b *ColumnBatch) {
	n := b.Len()
	sh.hist.ObserveValue(int64(n))
	t := sh.tracer.Load()
	sp := t.Begin("drain", "collector")
	if sh.sink == nil || sh.retain {
		sh.mu.Lock()
		sh.cols.AppendRange(b, 0, n)
		sh.mu.Unlock()
	}
	if sh.sink != nil {
		sh.sink(sh.id, b)
	}
	if t != nil {
		sp.End("shard", strconv.Itoa(sh.id), "events", strconv.Itoa(n))
	}
}

// drain moves events from the channel into the shard-local store and/or the
// sink. Batch slots — producer flushes — are delivered one sink call each,
// straight from the columns the producer wrote. Single-event slots are
// gathered, for as long as more are already queued, into one working batch
// taken from the column pool, so a burst of per-event Records costs one
// sink call. Exits when the channel is closed and empty.
func (sh *shard) drain() {
	work := pooledColumns(0)
	for s := range sh.ch {
		sh.take(work, s)
		// Gather the rest of the burst without blocking.
	gather:
		for {
			select {
			case s, ok := <-sh.ch:
				if !ok {
					break gather
				}
				sh.take(work, s)
			default:
				break gather
			}
		}
		if work.Len() > 0 {
			sh.deliver(work)
			work.Reset()
		}
	}
	releaseColumns(work)
	close(sh.done)
}

// snapshot inflates a copy of the store for live readers.
func (sh *shard) snapshot() []Event {
	sh.mu.Lock()
	out := sh.cols.Events(make([]Event, 0, sh.cols.Len()))
	sh.mu.Unlock()
	return out
}

// seal marks the shard closed for producers (late Records count as dropped)
// and closes the channel so the drain goroutine can finish.
func (sh *shard) seal() {
	sh.closeMu.Lock()
	sh.closed = true
	sh.closeMu.Unlock()
	close(sh.ch)
}

// NewShardedCollector starts a collector with n shards (0 means GOMAXPROCS)
// and the default per-shard buffer.
func NewShardedCollector(n int) *ShardedCollector {
	return NewShardedCollectorSize(n, DefaultAsyncBuffer)
}

// NewShardedCollectorSize starts a collector with n shards (0 means
// GOMAXPROCS) whose buffers each hold up to buf events (buf/DefaultBatchSize
// slots, of which a sole producer's batches may fill half, see
// DefaultAsyncBuffer), using the lossless Block overload policy.
func NewShardedCollectorSize(n, buf int) *ShardedCollector {
	return NewShardedCollectorOpts(n, buf, Block())
}

// NewShardedCollectorOpts starts a collector with n shards (0 means
// GOMAXPROCS), per-shard buffers of buf events, and an explicit overload
// policy.
func NewShardedCollectorOpts(n, buf int, policy OverloadPolicy) *ShardedCollector {
	return NewStreamingShardedCollector(n, buf, policy, true, nil)
}

// NewStreamingShardedCollector starts a collector whose drain goroutines hand
// event batches to sink (may be nil). retain controls whether events are also
// kept in the per-shard stores for post-mortem access; a streaming consumer
// passes retain=false so memory stays bounded by its own reducer state. With
// retain=false, Events returns nothing — the sink is the only
// destination — while the Stats accounting is unchanged.
func NewStreamingShardedCollector(n, buf int, policy OverloadPolicy, retain bool, sink ShardSink) *ShardedCollector {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if buf < 1 {
		buf = 1
	}
	c := &ShardedCollector{shards: make([]*shard, n), buf: buf, policy: policy}
	c.drainHist = obs.NewHistogram()
	for i := range c.shards {
		c.shards[i] = newShard(i, buf, sink, retain, &c.tracer, c.drainHist)
	}
	return c
}

// SetTracer attaches a span tracer: every sink delivery becomes one "drain"
// span (shard and batch size as args). Safe to call on a live collector;
// nil detaches.
func (c *ShardedCollector) SetTracer(t *obs.Tracer) { c.tracer.Store(t) }

// EnableQueueSampling starts periodic sampling of every shard's queue depth
// into a histogram (interval <= 0 uses obs.DefaultSampleInterval). The
// sampler runs off the hot path — producers never see it — and stops with
// Close. Call before the collector is shared across goroutines; calling it
// twice replaces the sampler and leaks the first, so don't.
func (c *ShardedCollector) EnableQueueSampling(interval time.Duration) {
	probes := make([]obs.Probe, len(c.shards))
	for i, sh := range c.shards {
		sh := sh
		probes[i] = obs.Probe{Name: "shard" + strconv.Itoa(i), Fn: sh.queued}
	}
	c.sampler = obs.StartOccupancySampler(interval, probes...)
}

// Record enqueues the event on the shard owning its instance. Under the
// default Block policy it is lossless: a full shard blocks the producer
// until the drain goroutine catches up. DropNewest and Sample trade
// completeness for bounded producer latency; whatever is not stored is
// counted in Stats().Dropped. Record after Close does not panic — the event
// is counted as dropped (Stats().DroppedAfterClose), mirroring the socket
// recorder's no-crash guarantee.
func (c *ShardedCollector) Record(e Event) {
	c.shards[int(e.Instance)%len(c.shards)].send(slot{e: e}, c.policy)
}

// ColumnShards reports the shard count, so a Producer writes each event
// straight into the column batch of the shard that owns its instance.
func (c *ShardedCollector) ColumnShards() int { return len(c.shards) }

// RecordColumns enqueues a producer's column batch for one shard as a single
// slot and takes ownership of it: the drain hands it to the sink and store
// and returns it to the pool. Every event in b must belong to shard (its
// instance modulo NumShards). Overload and after-close semantics match
// Record, applied to the slot.
func (c *ShardedCollector) RecordColumns(shard int, b *ColumnBatch) {
	if b.Len() == 0 {
		releaseColumns(b)
		return
	}
	c.shards[shard].send(slot{b: b}, c.policy)
}

// scatterGroup is the number of shards one RecordBatch pass scatters into.
// The pass keeps its per-shard batches in a stack array of this size, so a
// flush allocates nothing; collectors with more shards take one pass per
// group of shards.
const scatterGroup = 16

// RecordBatch enqueues a []Event batch — the adapter for recorders that wrap
// the collector without the column form (Tee, Filter, bench timers). It
// scatters the batch into at most one pooled column batch per shard and
// sends each non-empty one as a single slot, so a flush costs one channel
// send per shard it touches however its instances interleave. The caller's
// slice is not retained. Overload and after-close semantics match Record,
// applied per slot.
func (c *ShardedCollector) RecordBatch(batch []Event) {
	if len(batch) == 0 {
		return
	}
	n := len(c.shards)
	if n == 1 {
		bp := pooledColumns(len(batch))
		bp.AppendEvents(batch)
		c.shards[0].send(slot{b: bp}, c.policy)
		return
	}
	for lo := 0; lo < n; lo += scatterGroup {
		var group [scatterGroup]*ColumnBatch
		for i := range batch {
			s := int(batch[i].Instance)%n - lo
			if uint(s) >= scatterGroup {
				continue
			}
			if group[s] == nil {
				group[s] = pooledColumns(len(batch))
			}
			group[s].Append(batch[i])
		}
		for s := range group {
			if bp := group[s]; bp != nil {
				c.shards[lo+s].send(slot{b: bp}, c.policy)
			}
		}
	}
}

// Close flushes every shard and stops the drain goroutines. It is
// idempotent. After Close returns, Events holds every delivered event.
func (c *ShardedCollector) Close() {
	c.once.Do(func() {
		for _, sh := range c.shards {
			sh.seal()
		}
		for _, sh := range c.shards {
			<-sh.done
		}
		c.sampler.Stop()
		c.closed.Store(true)
	})
}

// merge builds, once, the Seq-ordered union of all shard stores. Only called
// after Close, when the drain goroutines have stopped; the single-shard case
// sorts the store in place and pays no merge copy. Each shard
// store arrives near-sorted (producers enqueue in Seq order; only cross-
// producer interleaving perturbs it), so each is cheaply sorted in place and
// the sorted column runs are combined with the span-copying k-way heap merge
// of mergeColumnRuns — six column copies per contiguous span instead of a
// struct move per event, with runs split only at genuine overlap boundaries
// (counted into the dsspy_columnar_merge_splits_total metric).
func (c *ShardedCollector) merge() *ColumnBatch {
	c.mergeOnce.Do(func() {
		if len(c.shards) == 1 {
			c.shards[0].cols.SortBySeq()
			c.mergedCols = &c.shards[0].cols
			return
		}
		runs := make([]*ColumnBatch, 0, len(c.shards))
		for _, sh := range c.shards {
			if sh.cols.Len() == 0 {
				continue
			}
			sh.cols.SortBySeq()
			runs = append(runs, &sh.cols)
		}
		merged, splits := mergeColumnRuns(runs)
		c.mergeSplits.Add(uint64(splits))
		c.mergedCols = merged
	})
	return c.mergedCols
}

// Events returns the collected events in sequence order, inflated to Event
// structs. After Close the merged columnar order is computed once and cached,
// so each call costs one inflation; on a live collector it returns a sorted
// snapshot of what has been drained so far. Consumers that can fold columns
// should use MergedColumns instead and skip the inflation entirely.
func (c *ShardedCollector) Events() []Event {
	if c.closed.Load() {
		m := c.merge()
		return m.Events(make([]Event, 0, m.Len()))
	}
	var all []Event
	for _, sh := range c.shards {
		all = append(all, sh.snapshot()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// MergedColumns returns the Seq-ordered union of all shard stores as one
// column batch — the zero-inflation post-mortem view. Only valid after Close
// (nil before); computed once and cached, and possibly aliasing a shard
// store, so treat it as read-only.
func (c *ShardedCollector) MergedColumns() *ColumnBatch {
	if !c.closed.Load() {
		return nil
	}
	return c.merge()
}

// NumShards returns the number of shards.
func (c *ShardedCollector) NumShards() int { return len(c.shards) }

// Len returns the number of events drained so far across all shards.
func (c *ShardedCollector) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.cols.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats reports per-shard queue statistics, cumulative producer block time,
// and the drop accounting: Events - Dropped - DroppedAfterClose is exactly
// the number of events in the store.
func (c *ShardedCollector) Stats() CollectorStats {
	cs := CollectorStats{
		Shards:         len(c.shards),
		Buffer:         c.buf,
		Policy:         c.policy.String(),
		ShardRecorded:  make([]uint64, len(c.shards)),
		ShardDropped:   make([]uint64, len(c.shards)),
		ShardHighWater: make([]int, len(c.shards)),
		ShardBlock:     make([]time.Duration, len(c.shards)),
	}
	for i, sh := range c.shards {
		n := sh.count.Load()
		cs.ShardRecorded[i] = n
		cs.Events += n
		d := sh.dropped.Load()
		cs.ShardDropped[i] = d
		cs.Dropped += d
		dc := sh.droppedClosed.Load()
		cs.DroppedAfterClose += dc
		cs.Dropped += dc
		cs.ShardHighWater[i] = int(sh.highWater.Load())
		blk := time.Duration(sh.blockNS.Load())
		cs.ShardBlock[i] = blk
		cs.BlockTime += blk
	}
	if c.sampler != nil {
		cs.QueueSampleInterval = c.sampler.Interval()
		cs.ShardQueueDepth = make([]obs.HistSnapshot, len(c.shards))
		for i := range c.shards {
			cs.ShardQueueDepth[i] = c.sampler.Hist(i)
		}
	}
	return cs
}

// WriteMetrics exports the collector's counters and, when queue sampling is
// enabled, the per-shard queue-depth histograms in Prometheus exposition.
func (c *ShardedCollector) WriteMetrics(w *obs.PromWriter) {
	for i, sh := range c.shards {
		shard := strconv.Itoa(i)
		w.Counter("dsspy_collector_events_total",
			"Events recorded per shard (delivered + dropped).",
			float64(sh.count.Load()), "shard", shard)
		w.Counter("dsspy_collector_dropped_total",
			"Events not stored: overload + after-close drops.",
			float64(sh.dropped.Load()+sh.droppedClosed.Load()), "shard", shard)
		w.Counter("dsspy_collector_block_seconds_total",
			"Cumulative producer time blocked on a full shard buffer.",
			float64(sh.blockNS.Load())/1e9, "shard", shard)
		w.Gauge("dsspy_collector_queue_len",
			"Current shard queue length (events in the shard channel).",
			float64(sh.queued()), "shard", shard)
		w.Gauge("dsspy_collector_queue_high_water",
			"Max shard queue length observed.", float64(sh.highWater.Load()), "shard", shard)
	}
	if c.sampler != nil {
		for i := range c.shards {
			w.Histogram("dsspy_collector_queue_depth",
				"Sampled shard queue depth.", c.sampler.Hist(i), 1, "shard", strconv.Itoa(i))
		}
	}
	var avoided uint64
	for _, sh := range c.shards {
		avoided += sh.columnar.Load()
	}
	w.Histogram("dsspy_columnar_drain_batch_events",
		"Events per sink delivery: one producer flush's share for the shard, or a gathered burst of single events.",
		c.drainHist.Snapshot(), 1)
	w.Counter("dsspy_columnar_inflations_avoided_total",
		"Events that crossed the shard boundary in columnar batches and were never inflated to Event structs.",
		float64(avoided))
	w.Counter("dsspy_columnar_merge_splits_total",
		"Batch runs split at overlap boundaries by the columnar k-way merge.",
		float64(c.mergeSplits.Load()))
}
