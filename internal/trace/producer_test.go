package trace

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"dsspy/internal/obs"
)

// TestProducerMatchesSessionEmit: on a single goroutine the batched handle
// must produce the exact event stream per-event Emit does — same Seqs, same
// payloads — regardless of batch size.
func TestProducerMatchesSessionEmit(t *testing.T) {
	emit := func(f func(id InstanceID, op Op, index, size int)) {
		for i := 0; i < 333; i++ {
			f(InstanceID(i%3+1), Op(1+i%4), i%7, i)
		}
	}

	want := NewMemRecorder()
	sw := NewSessionWith(Options{Recorder: want})
	emit(func(id InstanceID, op Op, index, size int) { sw.Emit(id, op, index, size) })

	for _, size := range []int{0, 1, 5, DefaultBatchSize, 333, 1000} {
		got := NewMemRecorder()
		sg := NewSessionWith(Options{Recorder: got})
		p := sg.BindSize(size)
		emit(p.Emit)
		p.Close()

		ge, we := got.Events(), want.Events()
		if len(ge) != len(we) {
			t.Fatalf("size %d: %d events, want %d", size, len(ge), len(we))
		}
		for i := range ge {
			if ge[i] != we[i] {
				t.Fatalf("size %d: event %d = %+v, want %+v", size, i, ge[i], we[i])
			}
		}
	}
}

// TestProducerAutoFlushOnFull: the batch flushes itself exactly when it
// fills, so Pending never reaches the capacity.
func TestProducerAutoFlushOnFull(t *testing.T) {
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem})
	p := s.Bind()
	for i := 0; i < DefaultBatchSize-1; i++ {
		p.Emit(1, OpInsert, i, i)
	}
	if p.Pending() != DefaultBatchSize-1 {
		t.Fatalf("pending = %d, want %d", p.Pending(), DefaultBatchSize-1)
	}
	if mem.Len() != 0 {
		t.Fatalf("recorder saw %d events before the batch filled", mem.Len())
	}
	p.Emit(1, OpInsert, 0, 0)
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after auto-flush, want 0", p.Pending())
	}
	if mem.Len() != DefaultBatchSize {
		t.Fatalf("recorder saw %d events, want %d", mem.Len(), DefaultBatchSize)
	}
	p.Close()
}

// TestProducerSeqBlocksContiguous: concurrent producers each reserve
// contiguous Seq blocks at flush; the union over all producers is the
// gap-free range 1..N and each producer's own events stay in program order.
func TestProducerSeqBlocksContiguous(t *testing.T) {
	const producers, perProducer = 8, 1000
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem})
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := s.BindAs(ThreadID(g + 1))
			for i := 0; i < perProducer; i++ {
				p.Emit(InstanceID(g+1), OpWrite, i, i)
			}
			p.Close()
		}(g)
	}
	wg.Wait()

	events := mem.Events()
	if len(events) != producers*perProducer {
		t.Fatalf("recorded %d events, want %d", len(events), producers*perProducer)
	}
	seqs := make([]uint64, len(events))
	perThread := map[ThreadID][]Event{}
	for i, e := range events {
		seqs[i] = e.Seq
		perThread[e.Thread] = append(perThread[e.Thread], e)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, q := range seqs {
		if q != uint64(i+1) {
			t.Fatalf("seq space has a gap or duplicate at %d: %d", i, q)
		}
	}
	for th, evs := range perThread {
		if len(evs) != perProducer {
			t.Fatalf("thread %d delivered %d events, want %d", th, len(evs), perProducer)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq || evs[i].Index != evs[i-1].Index+1 {
				t.Fatalf("thread %d lost program order at %d: %+v after %+v", th, i, evs[i], evs[i-1])
			}
		}
	}
}

// TestBindCapturesThreadOnce: with thread capture on, Bind resolves the
// goroutine id a single time and stamps it on every event; the id matches
// what per-event capture would have produced on the same goroutine.
func TestBindCapturesThreadOnce(t *testing.T) {
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem, CaptureThreads: true})
	done := make(chan ThreadID)
	go func() {
		direct := CurrentThreadID()
		p := s.Bind()
		for i := 0; i < 10; i++ {
			p.Emit(1, OpRead, NoIndex, 1)
		}
		p.Close()
		done <- direct
	}()
	direct := <-done
	for i, e := range mem.Events() {
		if e.Thread != direct {
			t.Fatalf("event %d has thread %d, want cached id %d", i, e.Thread, direct)
		}
	}
}

// TestBindWithoutCaptureLeavesThreadZero mirrors Session.Emit's behavior
// when thread capture is off.
func TestBindWithoutCaptureLeavesThreadZero(t *testing.T) {
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem})
	p := s.Bind()
	if p.Thread() != 0 {
		t.Fatalf("capture off but thread = %d", p.Thread())
	}
	p.Emit(1, OpRead, 0, 1)
	p.Close()
	if got := mem.Events()[0].Thread; got != 0 {
		t.Fatalf("event thread = %d, want 0", got)
	}
}

// TestBindAsStampsExplicitID: BindAs uses the caller's id verbatim, even when
// the session would otherwise capture goroutine ids.
func TestBindAsStampsExplicitID(t *testing.T) {
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem, CaptureThreads: true})
	id := ExplicitThreadID()
	p := s.BindAs(id)
	p.Emit(1, OpWrite, 0, 1)
	p.Close()
	if got := mem.Events()[0].Thread; got != id {
		t.Fatalf("event thread = %d, want explicit %d", got, id)
	}
}

// TestProducerFlushEmptyIsNoop: Flush and Close on an empty batch deliver
// nothing and record no flush in the stats.
func TestProducerFlushEmptyIsNoop(t *testing.T) {
	mem := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: mem})
	p := s.Bind()
	p.Flush()
	p.Close()
	if mem.Len() != 0 {
		t.Fatalf("empty flush delivered %d events", mem.Len())
	}
	if bs := s.BatchStats(); bs.Flushes != 0 || bs.Events != 0 {
		t.Fatalf("empty flush counted in stats: %+v", bs)
	}
}

// TestSessionBatchStats: flush count, event count and the fill distribution
// reflect the actual batch boundaries.
func TestSessionBatchStats(t *testing.T) {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	p := s.BindSize(10)
	for i := 0; i < 25; i++ { // two full flushes of 10 + one Close flush of 5
		p.Emit(1, OpInsert, i, i)
	}
	p.Close()
	bs := s.BatchStats()
	if bs.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3", bs.Flushes)
	}
	if bs.Events != 25 {
		t.Fatalf("batched events = %d, want 25", bs.Events)
	}
	if mean := bs.Fill.Mean(); mean < 8 || mean > 10 {
		t.Fatalf("mean fill = %.1f, want ≈ 25/3", mean)
	}
	if bs.Latency.Count != 3 {
		t.Fatalf("latency observations = %d, want 3", bs.Latency.Count)
	}
}

// TestProducerIntoShardedCollector: batched emission through the sharded
// collector keeps the delivered/recorded accounting invariant and loses
// nothing under the blocking policy.
func TestProducerIntoShardedCollector(t *testing.T) {
	col := NewShardedCollectorOpts(4, 128, Block())
	s := NewSessionWith(Options{Recorder: col})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := s.Bind()
			for i := 0; i < 2000; i++ {
				p.Emit(InstanceID(i%8+1), OpInsert, i, i)
			}
			p.Close()
		}(g)
	}
	wg.Wait()
	col.Close()

	st := col.Stats()
	if st.Events != 8000 || st.Dropped != 0 {
		t.Fatalf("accounting broken: %+v", st)
	}
	events := inflated(col.MergedColumns())
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("merged stream out of order at %d", i)
		}
	}
}

// TestLookupThreadIDConcurrent hammers the sharded goroutine-id table from
// many fresh goroutines at once: every goroutine must get a stable id, and
// no two goroutines may share one. Run under -race.
func TestLookupThreadIDConcurrent(t *testing.T) {
	const goroutines = 200
	ids := make([]ThreadID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := CurrentThreadID()
			for i := 0; i < 50; i++ {
				if again := CurrentThreadID(); again != first {
					t.Errorf("goroutine %d: id changed %d -> %d", g, first, again)
					return
				}
			}
			ids[g] = first
		}(g)
	}
	wg.Wait()
	seen := map[ThreadID]int{}
	for g, id := range ids {
		if prev, dup := seen[id]; dup {
			t.Fatalf("goroutines %d and %d share thread id %d", prev, g, id)
		}
		seen[id] = g
	}
}

// TestSessionBatchMetricsExposition pins the dsspy_batch_* Prometheus series
// the CLI serves when a session is registered as a metrics source.
func TestSessionBatchMetricsExposition(t *testing.T) {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	p := s.BindSize(8)
	for i := 0; i < 20; i++ { // two full flushes of 8 + one Close flush of 4
		p.Emit(1, OpInsert, i, i)
	}
	p.Close()

	var sb strings.Builder
	w := obs.NewPromWriter(&sb)
	s.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsspy_batch_flushes_total 3",
		"dsspy_batch_events_total 20",
		"dsspy_batch_fill_count 3",
		"dsspy_batch_fill_sum 20",
		"dsspy_batch_flush_seconds_count 3",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}
