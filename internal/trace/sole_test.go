package trace

import (
	"reflect"
	"testing"
	"time"
)

// soleStream emits n events through emit: the odd instances 1..13 and, one
// event in sixteen, instance 8, so on two shards shard 0 gets only instance
// 8 — the shape of CPU Benchmarks' cold shard — and on three shards the
// split is uneven too. Ops, indices and sizes vary so that any reordering
// shows in the columns.
func soleStream(n int, emit func(id InstanceID, op Op, index, size int), every func(i int)) {
	for i := 0; i < n; i++ {
		id := InstanceID(2*(i%7) + 1)
		if i%16 == 5 {
			id = 8
		}
		emit(id, Op(1+i%5), i%13, i%29)
		if every != nil {
			every(i + 1)
		}
	}
}

// retainedColumns runs stream on a session over a retaining k-shard
// collector through the producer bind returns and hands back the merged,
// Seq-ordered columns.
func retainedColumns(t *testing.T, k int, bind func(*Session) *Producer, stream func(*Producer)) *ColumnBatch {
	t.Helper()
	col := NewShardedCollectorOpts(k, DefaultAsyncBuffer, Block())
	s := NewSessionWith(Options{Recorder: col})
	p := bind(s)
	stream(p)
	p.Close()
	col.Close()
	if st := col.Stats(); st.Dropped != 0 {
		t.Fatalf("lossless collector dropped %d events", st.Dropped)
	}
	return col.MergedColumns()
}

// TestSoleProducerMatchesPerEvent: the sole producer's partial hand-offs
// stamp every buffered event, in whichever shard, at each hand-off, so the
// retained Seq-ordered columns equal those of per-event delivery
// (BindSize(1)) exactly — on one, two and three shards, with and without
// mid-stream Flushes.
func TestSoleProducerMatchesPerEvent(t *testing.T) {
	const n = 20000
	for _, k := range []int{1, 2, 3} {
		for _, flushEvery := range []int{0, 777, 5000} {
			stream := func(p *Producer) {
				soleStream(n, p.Emit, func(i int) {
					if flushEvery > 0 && i%flushEvery == 0 {
						p.Flush()
					}
				})
			}
			want := retainedColumns(t, k, func(s *Session) *Producer { return s.BindSize(1) }, stream)
			got := retainedColumns(t, k, (*Session).BindDefault, stream)
			if want.Len() != n || !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d flush every %d: sole producer columns differ from per-event delivery (%d vs %d events)",
					k, flushEvery, got.Len(), want.Len())
			}
			for i, q := range got.Seq {
				if q != uint64(i+1) {
					t.Fatalf("shards=%d: event %d has Seq %d", k, i, q)
				}
			}
		}
	}
}

// handoffSpy is a column recorder that checks the sole producer's hand-off
// rule as each batch arrives. In an ungated stream an event's Seq is its
// position in the producer's stream, so the spy can tell how old the oldest
// event of a batch is against now, the position of the event being emitted.
type handoffSpy struct {
	t       *testing.T
	shards  int
	now     uint64
	maxAge  uint64
	closing bool

	batches, full, swept int
	lens                 []int
}

func (h *handoffSpy) Record(Event)      { h.t.Fatal("sole producer delivered a single event") }
func (h *handoffSpy) ColumnShards() int { return h.shards }

func (h *handoffSpy) RecordColumns(shard int, b *ColumnBatch) {
	defer releaseColumns(b)
	h.batches++
	h.lens = append(h.lens, b.Len())
	if !b.sole {
		h.t.Fatalf("batch for shard %d not marked as a sole producer's", shard)
	}
	for i, q := range b.Seq {
		if int(b.Instance[i])%h.shards != shard {
			h.t.Fatalf("instance %d in shard %d's batch", b.Instance[i], shard)
		}
		if q > h.now || (i > 0 && q <= b.Seq[i-1]) {
			h.t.Fatalf("batch Seqs out of program order: %d at %d (now %d)", q, i, h.now)
		}
	}
	age := h.now - b.Seq[0] + 1
	if age > h.maxAge {
		h.t.Fatalf("shard %d handed over an event %d events old, bound %d", shard, age, h.maxAge)
	}
	switch {
	case b.Len() == soleBatchSize:
		h.full++
	case age == h.maxAge:
		h.swept++
	case !h.closing:
		h.t.Fatalf("shard %d handed over %d events at age %d: neither full nor due", shard, b.Len(), age)
	}
}

// TestSoleProducerHandOffRule pins the hand-off rule: a shard's batch goes
// over alone when it holds soleBatchSize events; a batch that fills slower
// goes over exactly when its oldest event is len(shards)·soleBatchSize events
// old; and Pending counts the events buffered across all shards, never
// reaching that bound.
func TestSoleProducerHandOffRule(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		spy := &handoffSpy{t: t, shards: k, maxAge: uint64(k * soleBatchSize)}
		s := NewSessionWith(Options{Recorder: spy})
		p := s.BindDefault()
		const n = 50000
		soleStream(n, func(id InstanceID, op Op, index, size int) {
			spy.now++
			p.Emit(id, op, index, size)
		}, func(i int) {
			pend := p.Pending()
			if pend >= k*soleBatchSize {
				t.Fatalf("shards=%d: %d events pending, bound %d", k, pend, k*soleBatchSize)
			}
			if got := sumLens(spy.lens) + uint64(pend); got != uint64(i) {
				t.Fatalf("shards=%d after %d events: %d delivered + %d pending", k, i, sumLens(spy.lens), pend)
			}
		})
		spy.closing = true
		p.Close()
		if p.Pending() != 0 || sumLens(spy.lens) != n {
			t.Fatalf("shards=%d: Close left %d pending, delivered %d of %d", k, p.Pending(), sumLens(spy.lens), n)
		}
		if spy.full == 0 {
			t.Fatalf("shards=%d: no batch was handed over full", k)
		}
		if k > 1 && spy.swept == 0 {
			t.Fatalf("shards=%d: the cold shard was never handed over at its deadline", k)
		}
		if k == 1 && spy.swept != 0 {
			t.Fatalf("one shard: %d batches handed over before they were full", spy.swept)
		}
		if bs := s.BatchStats(); bs.Flushes != uint64(spy.batches) || bs.Events != n {
			t.Fatalf("shards=%d: batch stats %d deliveries of %d events, recorder saw %d batches",
				k, bs.Flushes, bs.Events, spy.batches)
		}
	}
}

func sumLens(lens []int) uint64 {
	var n uint64
	for _, l := range lens {
		n += uint64(l)
	}
	return n
}

// TestSoleProducerFlushHandsEverythingOver: a mid-stream Flush hands every
// shard's batch over, Pending drops to zero, and the next events start new
// batches and a new deadline.
func TestSoleProducerFlushHandsEverythingOver(t *testing.T) {
	col := NewShardedCollectorOpts(3, DefaultAsyncBuffer, Block())
	s := NewSessionWith(Options{Recorder: col})
	p := s.BindDefault()
	for i := 0; i < 1500; i++ {
		p.Emit(InstanceID(i%5+1), OpRead, i, i)
	}
	if got := p.Pending() + int(col.Stats().Events); got != 1500 {
		t.Fatalf("pending + recorded = %d, want 1500", got)
	}
	p.Flush()
	if p.Pending() != 0 || col.Stats().Events != 1500 {
		t.Fatalf("after Flush: %d pending, %d recorded", p.Pending(), col.Stats().Events)
	}
	p.Emit(1, OpWrite, 0, 1)
	if p.Pending() != 1 {
		t.Fatalf("pending = %d after one event, want 1", p.Pending())
	}
	p.Close()
	col.Close()
	if got := col.MergedColumns().Len(); got != 1501 {
		t.Fatalf("collector holds %d events, want 1501", got)
	}
}

// slowSink blocks every delivery for d, so producers outrun the drains.
func slowSink(d time.Duration, seen *[2]int) ShardSink {
	return func(shard int, b *ColumnBatch) {
		time.Sleep(d)
		seen[shard] += b.Len()
	}
}

// TestSoleProducerInFlightBound: against a drain far slower than the
// producer, a sole producer never has more than half of buf events — or one
// batch, when that is smaller — queued on a shard, well within buf plus one
// batch, while the queue keeps its buf/DefaultBatchSize slots for Bind
// flushes and per-event Records.
func TestSoleProducerInFlightBound(t *testing.T) {
	for _, buf := range []int{100, 2 * soleBatchSize, 4 * soleBatchSize} {
		var seen [2]int
		col := NewStreamingShardedCollector(2, buf, Block(), false, slowSink(200*time.Microsecond, &seen))
		for i, sh := range col.shards {
			if cap(sh.ch) != max(2, buf/DefaultBatchSize) {
				t.Fatalf("buf %d: shard %d channel has %d slots, want %d", buf, i, cap(sh.ch), max(2, buf/DefaultBatchSize))
			}
		}
		s := NewSessionWith(Options{Recorder: col})
		p := s.BindDefault()
		const n = 40 * soleBatchSize
		soleStream(n, p.Emit, nil)
		p.Close()
		col.Close()
		st := col.Stats()
		if st.Events != n || st.Dropped != 0 || seen[0]+seen[1] != n {
			t.Fatalf("buf %d: recorded %d, dropped %d, sink saw %d of %d", buf, st.Events, st.Dropped, seen[0]+seen[1], n)
		}
		bound := max(buf/2, soleBatchSize)
		for i, hw := range st.ShardHighWater {
			if hw > bound {
				t.Fatalf("buf %d: shard %d queued %d events, bound %d", buf, i, hw, bound)
			}
		}
		if st.BlockTime == 0 {
			t.Fatalf("buf %d: the producer never blocked; the sink is not slow enough to test the bound", buf)
		}
		for i, sh := range col.shards {
			if len(sh.room) != 0 {
				t.Fatalf("buf %d: shard %d kept %d room tokens after Close", buf, i, len(sh.room))
			}
		}
	}
}

// TestSoleProducerOverloadIdentities: under DropNewest and Sample the sole
// producer's batches are refused whole when their shard has no room, and
// delivered + dropped == recorded still holds, with the sink seeing exactly
// the delivered events.
func TestSoleProducerOverloadIdentities(t *testing.T) {
	for _, pol := range []OverloadPolicy{DropNewest(), Sample(3)} {
		var seen [2]int
		col := NewStreamingShardedCollector(2, soleBatchSize, pol, false, slowSink(time.Millisecond, &seen))
		s := NewSessionWith(Options{Recorder: col})
		p := s.BindDefault()
		const n = 30 * soleBatchSize
		soleStream(n, p.Emit, nil)
		p.Close()
		col.Close()
		st := col.Stats()
		if st.Events != n {
			t.Fatalf("%s: recorded %d, want %d", pol, st.Events, n)
		}
		if st.Dropped == 0 {
			t.Fatalf("%s: nothing dropped; the sink is not slow enough to test the policy", pol)
		}
		if got := uint64(seen[0] + seen[1]); got != st.Delivered() || got+st.Dropped != st.Events {
			t.Fatalf("%s: sink saw %d, delivered %d + dropped %d, recorded %d", pol, got, st.Delivered(), st.Dropped, st.Events)
		}
		for i, sh := range col.shards {
			if len(sh.room) != 0 {
				t.Fatalf("%s: shard %d kept %d room tokens after Close", pol, i, len(sh.room))
			}
		}
	}
}

// TestBindQueueUnchanged: Bind flushes and per-event Records never take room
// tokens, so a shard still queues buf/DefaultBatchSize of their slots.
func TestBindQueueUnchanged(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	col := NewStreamingShardedCollector(1, 4*DefaultBatchSize, DropNewest(), false, func(int, *ColumnBatch) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})
	s := NewSessionWith(Options{Recorder: col})
	p := s.Bind()
	// The first flush is taken by the drain and holds it in the sink; the
	// next four fill the channel's four slots; the sixth is dropped.
	for f := 0; f < 6; f++ {
		for i := 0; i < DefaultBatchSize; i++ {
			p.Emit(1, OpRead, i, i)
		}
		if f == 0 {
			<-entered
		}
	}
	if st := col.Stats(); st.Dropped != DefaultBatchSize {
		t.Fatalf("dropped %d events, want one flush of %d", st.Dropped, DefaultBatchSize)
	}
	if len(col.shards[0].room) != 0 {
		t.Fatalf("Bind flushes took %d room tokens", len(col.shards[0].room))
	}
	close(release)
	p.Close()
	col.Close()
}
