package trace

import (
	"math"
	"time"

	"dsspy/internal/obs"
)

// DefaultBatchSize is the capacity of a Bind producer's batch. 64 events
// (2.1 KiB of columns) amortizes the per-delivery costs — the session's atomic
// sequence allocation, the recorder dispatch, the shard lock or channel
// send — by ~64× while keeping the latency between an access and its
// visibility in a streaming snapshot in the microsecond range for active
// producers. The size also sets how finely a Bind producer's events
// interleave with other goroutines', since a flush is the unit in which they
// are sequenced. The session's sole producer (BindDefault) has nobody to
// interleave with and hands over per shard at soleBatchSize instead.
const DefaultBatchSize = 64

// soleBatchSize is the per-shard batch capacity of the session's sole
// producer (BindDefault): a shard's batch goes to the recorder when it holds
// this many events. At 1024 the per-batch costs — pooled batch open, two
// clock reads and histogram observations, the sequence atomic, the channel
// send, and on the drain side the receive, shard lock, instance-run scan and
// reducer lookup — fall to about one part in a thousand per event.
const soleBatchSize = 1024

// Producer is a goroutine-local emission handle: the batched counterpart to
// Session.Emit. Bind captures the goroutine id once, and Emit writes into
// producer-local columns with no atomics, no locks, and no runtime.Stack —
// those costs are paid once per batch at hand-off instead of once per
// event.
//
// The buffer is one pooled ColumnBatch per shard of the session's recorder
// (ColumnRecorder): each event is six indexed stores into the batch of the
// shard that owns its instance, and a hand-off gives the batch to the
// recorder by ownership, so the columns a Producer writes are the ones the
// collector's sink folds. A recorder without the column form counts as one
// shard; its program-order batch is inflated at hand-off into a reused
// []Event and delivered through RecordAll.
//
// When batches are handed over depends on how the producer was bound. A
// Bind producer flushes every shard at once each DefaultBatchSize events,
// because its flushes set how its events interleave with other goroutines'.
// The sole producer (BindDefault) hands one shard's batch over when it holds
// soleBatchSize events; the other shards keep buffering. So that a shard
// receiving few events is not hidden from live snapshots until Close, every
// buffered event is handed over within len(shards)·soleBatchSize of the
// producer's events: the span in which a shard taking its even share of the
// stream fills its batch.
//
// Sequence numbers are assigned at hand-off: while buffered, an event's Seq
// column holds its program-order offset among the events not yet stamped,
// and one atomic add reserves a contiguous block of the session counter that
// every such event — in whichever shard — gets added to its offset, so the
// merged, Seq-ordered event stream is identical to what per-event Emit
// produces. The only observable difference is ordering *between* producers:
// events buffered in a batch become visible to the recorder (and get their
// Seqs) only when the batch is handed over, so cross-goroutine interleavings
// may serialize at batch granularity. Accesses to an instance shared across
// goroutines keep their per-goroutine program order; analyses that need a
// tighter cross-goroutine interleaving should Flush at synchronization
// points or stay with Session.Emit.
//
// A Producer is NOT safe for concurrent use and must stay on the goroutine
// that called Bind (the cached thread id is that goroutine's). Close flushes
// the remainder and recycles the buffers; a closed Producer must not be used
// again.
type Producer struct {
	s      *Session
	thread ThreadID

	// cr is the recorder's column form, nil when it has none. cols holds
	// one batch per shard (nil until the shard's first event after a
	// hand-off), each opened to size events; fill counts the events
	// written to each, and stamped how many of those already carry their
	// session Seq. n counts the buffered events not yet stamped.
	cr      ColumnRecorder
	cols    []*ColumnBatch
	fill    []int
	stamped []int
	n       int
	size    int
	// evs is the reused inflation buffer for a recorder without cr.
	evs []Event

	// clock counts the events appended over the producer's life; append
	// calls handOff when it reaches due. A Bind producer's due is the
	// clock of its next full flush. The sole producer's is no later than
	// the deadline of its oldest buffered event: born holds the clock of
	// each shard batch's first event, and a batch is handed over once the
	// clock reaches born + maxAge - 1.
	sole   bool
	clock  int
	due    int
	born   []int
	maxAge int

	// Gate credit cache (see Session.Gate), one slot per instance so
	// workloads that interleave instances keep their grants instead of
	// thrashing on every switch. All plain goroutine-local state: the drop
	// path of a backed-off instance is an index, a decrement, and a
	// branch — no locks, no atomics, no shared lines. Each slot's used
	// count is settled back to the gate via Observe when its grant is
	// exhausted or at sync points (hand-offs, Flush, Close) — conservation
	// accounting comes only from these exact settlements, never from grant
	// sizes.
	gate    Gate
	credits []gateCredit
	dirty   []InstanceID
}

// gateCredit is one instance's cached gate grant: the admit verdict, the
// credit remaining on it, and the events consumed but not yet settled. On a
// drop verdict the consumed events are additionally folded into a, the
// slot-local lazy aggregate (aggregate.go), so sampled-out periods settle as
// one compact record instead of a blind drop count.
type gateCredit struct {
	admit bool
	left  int32
	used  uint32
	a     agg
}

// noDue is the sole producer's due clock while nothing is buffered.
const noDue = math.MaxInt

// Bind returns a Producer for the calling goroutine with the default batch
// size. If the session captures thread ids, the goroutine id is resolved
// here, once — every event emitted through the handle carries it for free.
func (s *Session) Bind() *Producer { return s.BindSize(DefaultBatchSize) }

// BindSize is Bind with an explicit batch capacity (events per flush).
// size <= 0 uses DefaultBatchSize; size == 1 degenerates to per-event
// delivery (useful in differential tests). Reports are byte-identical for
// any size.
func (s *Session) BindSize(size int) *Producer {
	return s.bind(s.boundThread(), size, false)
}

// BindAs is Bind with a caller-supplied thread id (the batched counterpart
// to Session.EmitAs): no goroutine-id capture at all, for workloads that
// thread worker identity through explicitly.
func (s *Session) BindAs(thread ThreadID) *Producer {
	return s.bind(thread, DefaultBatchSize, false)
}

// boundThread is the thread id a producer bound on the calling goroutine
// stamps: its goroutine id when the session captures them, 0 otherwise.
func (s *Session) boundThread() ThreadID {
	if s.captureThreads {
		return CurrentThreadID()
	}
	return 0
}

func (s *Session) bind(thread ThreadID, size int, sole bool) *Producer {
	if size <= 0 {
		size = DefaultBatchSize
	}
	p := &Producer{s: s, gate: s.gate, thread: thread, size: size, sole: sole, due: size}
	shards := 1
	if k := columnShards(s.rec); k > 0 {
		p.cr = s.rec.(ColumnRecorder)
		shards = k
	}
	p.cols = make([]*ColumnBatch, shards)
	p.fill = make([]int, shards)
	p.stamped = make([]int, shards)
	if sole {
		// With one shard the deadline falls on the event that fills the
		// batch, so the batch a recorder without the column form keeps
		// (and never reopens) needs no deadline of its own.
		p.born = make([]int, shards)
		p.maxAge = shards * size
		p.due = noDue
	}
	return p
}

// BindDefault binds the session's sole producer and routes every
// Session.Emit call through it, so code instrumented against the per-event
// API — the dstruct containers — gets batched delivery without any call-site
// change. It is strictly opt-in and only safe when ALL emission happens on
// the calling goroutine for the producer's lifetime: the routed producer is
// goroutine-local state behind a concurrency-safe API. The CLI uses it for
// its single-goroutine -app/-demo workloads.
//
// Because nothing else emits, the sole producer does not flush every
// DefaultBatchSize events like a Bind producer: each shard's batch is handed
// over when it holds soleBatchSize events, and every buffered event within a
// bounded number of the producer's events (see Producer). Events are still
// stamped in program order, so reports are byte-identical to per-event
// Emit. Close (or Flush at a sync point) before concurrent producers join or
// the recorder is read; Close detaches the routing.
func (s *Session) BindDefault() *Producer {
	p := s.bind(s.boundThread(), soleBatchSize, true)
	s.bound = p
	return p
}

// Emit appends one access event to the batch of its shard; a hand-off
// assigns its sequence number.
func (p *Producer) Emit(id InstanceID, op Op, index, size int) {
	if p.gate != nil && !p.admit(id, op, index, size) {
		return
	}
	p.append(id, op, index, size, p.thread)
}

// append adds one already-admitted event of the given thread to the batch of
// its shard, handing batches over when the shard's batch fills or the
// producer's clock reaches due. It is the delivery half of Emit, and the
// entry point for container handles (handle.go), whose events carry their
// own gate verdict, and for Session.EmitAs under a bound producer, whose
// events carry their own thread id.
func (p *Producer) append(id InstanceID, op Op, index, size int, thread ThreadID) {
	sh := int(uint(id) % uint(len(p.cols)))
	b := p.cols[sh]
	if b == nil {
		b = p.open(sh)
	}
	k := p.fill[sh]
	b.Seq[k] = uint64(p.n)
	b.Instance[k] = id
	b.Op[k] = op
	b.Thread[k] = thread
	b.Index[k] = index
	b.Size[k] = size
	p.fill[sh] = k + 1
	p.n++
	p.clock++
	if k+1 == p.size || p.clock == p.due {
		p.handOff(sh)
	}
}

// open takes a pooled batch for shard sh with its columns opened to the
// batch size, so append writes by index: however the events fall across
// shards, no shard gets more than a batch. For the sole producer it starts
// the shard's hand-off deadline at the event about to be written.
func (p *Producer) open(sh int) *ColumnBatch {
	b := pooledColumns(p.size)
	b.setLen(p.size)
	b.sole = p.sole
	p.cols[sh] = b
	if p.sole {
		p.born[sh] = p.clock + 1
		p.due = min(p.due, p.clock+p.maxAge)
	}
	return b
}

// handOff runs when append fills shard sh's batch or the clock reaches due.
// A Bind producer flushes everything. The sole producer hands the full batch
// over on its own and, at due, every batch whose deadline has come.
func (p *Producer) handOff(sh int) {
	if !p.sole {
		p.Flush()
		return
	}
	if p.fill[sh] == p.size {
		p.handOver(sh)
	}
	if p.clock < p.due {
		return
	}
	p.due = noDue
	for i, k := range p.fill {
		if k == 0 {
			continue
		}
		if deadline := p.born[i] + p.maxAge - 1; deadline <= p.clock {
			p.handOver(i)
		} else {
			p.due = min(p.due, deadline)
		}
	}
}

// admit burns one event of the instance's gate credit, refreshing the grant
// when it is exhausted. The common case — credit left on the slot — touches
// only producer-local fields. Events consumed under a drop verdict fold into
// the slot's aggregate rather than vanishing.
func (p *Producer) admit(id InstanceID, op Op, index, size int) bool {
	idx := int(id) - 1
	if idx < 0 {
		// Unregistered id: no slot to cache under, gate per event.
		return p.gate.Admit(id, p.thread)
	}
	if idx >= len(p.credits) {
		next := make([]gateCredit, idx+8)
		copy(next, p.credits)
		for i := len(p.credits); i < len(next); i++ {
			next[i].a.reset()
		}
		p.credits = next
	}
	c := &p.credits[idx]
	if c.left <= 0 {
		// Settle what was consumed under the expiring grant before its
		// verdict is replaced.
		p.settleCredit(id, c)
		admit, left := p.gate.AdmitRun(id, p.thread)
		if left < 1 {
			left = 1
		}
		c.admit, c.left = admit, int32(left)
	}
	c.left--
	if c.used == 0 {
		p.dirty = append(p.dirty, id)
	}
	c.used++
	if !c.admit {
		c.a.fold(op, index)
		c.a.size = size
	}
	return c.admit
}

// settleCredit reports the slot's consumed-but-unsettled events back to the
// gate: kept counts directly, dropped periods as the slot's aggregate (the
// session routes it to the gate's aggregate hook when it has one, or settles
// it as a plain drop count otherwise).
func (p *Producer) settleCredit(id InstanceID, c *gateCredit) {
	if c.used == 0 {
		return
	}
	if c.admit {
		p.gate.Observe(id, uint64(c.used), 0)
	} else {
		p.s.flushAggregate(c.a.take(id))
	}
	c.used = 0
}

// settleGate settles every instance with consumed credit and voids the
// remaining grants, so each grant is settled at most once and the gate's
// conservation counters are exact at every sync point. A producer may void
// credit it never consumes; the gate's schedule position simply moves on.
func (p *Producer) settleGate() {
	for _, id := range p.dirty {
		c := &p.credits[int(id)-1]
		p.settleCredit(id, c)
		c.left = 0
	}
	p.dirty = p.dirty[:0]
}

// handOver settles the gate, stamps every buffered event and hands shard
// sh's batch to the recorder: the sole producer's unit of delivery.
func (p *Producer) handOver(sh int) {
	if p.gate != nil {
		p.settleGate()
	}
	start := time.Now()
	k := p.fill[sh]
	p.stamp()
	p.deliver(sh)
	p.s.observeFlush(k, time.Since(start))
}

// stamp reserves a contiguous block of session sequence numbers for the
// buffered events not yet stamped and adds its base to their program-order
// offsets, in whichever shard's batch they sit.
func (p *Producer) stamp() {
	n := p.n
	if n == 0 {
		return
	}
	base := p.s.seq.Add(uint64(n)) - uint64(n) + 1
	for sh, k := range p.fill {
		if j := p.stamped[sh]; j < k {
			seq := p.cols[sh].Seq[j:k]
			for i := range seq {
				seq[i] += base
			}
			p.stamped[sh] = k
		}
	}
	p.n = 0
}

// deliver hands shard sh's stamped batch to the recorder: whole through
// RecordColumns, or — for a recorder without the column form — inflated
// into a []Event for RecordAll, keeping the batch for reuse.
func (p *Producer) deliver(sh int) {
	k := p.fill[sh]
	b := p.cols[sh]
	p.fill[sh], p.stamped[sh] = 0, 0
	if p.cr == nil {
		p.evs = b.AppendTo(p.evs[:0], 0, k)
		RecordAll(p.s.rec, p.evs)
		return
	}
	b.setLen(k)
	p.cols[sh] = nil
	p.cr.RecordColumns(sh, b)
}

// Flush stamps the buffered events with a contiguous block of session
// sequence numbers and delivers them to the recorder, one batch per
// non-empty shard. A Bind producer's flush counts as one delivery in the
// batching stats; each of the sole producer's batches counts as one. Flush
// settles the gate even when the buffer is empty. Call it before
// synchronizing with another goroutine that reads the recorder (or rely on
// Close).
func (p *Producer) Flush() {
	if p.gate != nil {
		// Settle gate accounting at every sync point, even when the
		// buffer is empty — a fully-dropped period leaves it untouched
		// while drop counts accumulate.
		p.settleGate()
	}
	if p.sole {
		for sh, k := range p.fill {
			if k > 0 {
				p.handOver(sh)
			}
		}
		p.due = noDue
		return
	}
	p.due = p.clock + p.size
	n := p.n
	if n == 0 {
		return
	}
	start := time.Now()
	p.stamp()
	for sh, k := range p.fill {
		if k > 0 {
			p.deliver(sh)
		}
	}
	p.s.observeFlush(n, time.Since(start))
}

// Pending returns the number of buffered events, across all shards, not yet
// handed to the recorder.
func (p *Producer) Pending() int {
	n := 0
	for _, k := range p.fill {
		n += k
	}
	return n
}

// Thread returns the thread id the producer stamps on its events.
func (p *Producer) Thread() ThreadID { return p.thread }

// Session returns the session the producer emits into.
func (p *Producer) Session() *Session { return p.s }

// Close flushes the remaining events and recycles the buffers. If the
// producer was routing Session.Emit (BindDefault), the routing is detached.
// The Producer must not be used afterwards.
func (p *Producer) Close() {
	p.Flush()
	if p.s.bound == p {
		p.s.bound = nil
	}
	for sh, b := range p.cols {
		if b != nil {
			releaseColumns(b)
			p.cols[sh] = nil
		}
	}
	p.evs = nil
}

// observeFlush feeds the session's batching-effectiveness histograms:
// events per delivery (fill) and wall time per delivery (latency, which
// includes any producer block time on full collector buffers). A delivery
// is a Bind producer's flush or one of the sole producer's shard batches.
func (s *Session) observeFlush(fill int, d time.Duration) {
	s.batchFill.ObserveValue(int64(fill))
	s.batchFlush.Observe(d)
}

// BatchStats summarizes the session's producer-batching effectiveness.
type BatchStats struct {
	Flushes uint64           // batches delivered
	Events  uint64           // events delivered through batches
	Fill    obs.HistSnapshot // events per flush
	Latency obs.HistSnapshot // wall time per flush (ns)
}

// BatchStats returns a snapshot of the batching histograms.
func (s *Session) BatchStats() BatchStats {
	fill := s.batchFill.Snapshot()
	return BatchStats{
		Flushes: fill.Count,
		Events:  uint64(fill.Sum),
		Fill:    fill,
		Latency: s.batchFlush.Snapshot(),
	}
}

// WriteMetrics exports the dsspy_batch_* series: flush count, batched event
// count, the fill distribution (average batch fill = _sum/_count), and the
// flush-latency distribution (p99 via the bucket series).
func (s *Session) WriteMetrics(w *obs.PromWriter) {
	bs := s.BatchStats()
	w.Counter("dsspy_batch_flushes_total",
		"Producer batch flushes delivered to the recorder.", float64(bs.Flushes))
	w.Counter("dsspy_batch_events_total",
		"Events delivered through producer batches.", float64(bs.Events))
	w.Histogram("dsspy_batch_fill",
		"Events per producer batch flush.", bs.Fill, 1)
	w.Histogram("dsspy_batch_flush_seconds",
		"Producer batch flush latency (stamp + deliver, including block time).",
		bs.Latency, 1e9)
	flushes, events := s.AggregateStats()
	w.Counter("dsspy_aggregate_flushes_total",
		"Lazy per-instance aggregates flushed at sync points.", float64(flushes))
	w.Counter("dsspy_aggregate_events_total",
		"Sampled-out accesses covered by flushed aggregates.", float64(events))
}
