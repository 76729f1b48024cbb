package trace

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// readAll drains sr onto one column batch and inflates it: the events of
// every frame decoded before the first error, which is nil at the clean end
// of the stream.
func readAll(sr *StreamReader) ([]Event, error) {
	var b ColumnBatch
	for {
		if _, err := sr.ReadColumns(&b); err != nil {
			if err == io.EOF {
				err = nil
			}
			return b.Events(nil), err
		}
	}
}

// readBatch reads the next event frame and inflates it.
func readBatch(sr *StreamReader) ([]Event, error) {
	var b ColumnBatch
	if _, err := sr.ReadColumns(&b); err != nil {
		return nil, err
	}
	return inflated(&b), nil
}

// inflated is b as a []Event, non-nil even when empty.
func inflated(b *ColumnBatch) []Event { return b.Events(make([]Event, 0, b.Len())) }

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpRead:    "Read",
		OpWrite:   "Write",
		OpInsert:  "Insert",
		OpDelete:  "Delete",
		OpSearch:  "Search",
		OpClear:   "Clear",
		OpCopy:    "Copy",
		OpReverse: "Reverse",
		OpSort:    "Sort",
		OpForAll:  "ForAll",
		OpResize:  "Resize",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
		if !op.Valid() {
			t.Errorf("%s.Valid() = false, want true", want)
		}
	}
	if Op(200).Valid() {
		t.Error("Op(200).Valid() = true, want false")
	}
	if OpNone.Valid() {
		t.Error("OpNone.Valid() = true, want false")
	}
}

func TestOpReadWriteClassification(t *testing.T) {
	reads := []Op{OpRead, OpSearch, OpForAll, OpCopy}
	writes := []Op{OpWrite, OpInsert, OpDelete, OpClear, OpReverse, OpSort, OpResize}
	for _, op := range reads {
		if !op.IsRead() || op.IsWrite() {
			t.Errorf("%s: IsRead=%v IsWrite=%v, want read-only", op, op.IsRead(), op.IsWrite())
		}
	}
	for _, op := range writes {
		if op.IsRead() || !op.IsWrite() {
			t.Errorf("%s: IsRead=%v IsWrite=%v, want write-only", op, op.IsRead(), op.IsWrite())
		}
	}
}

func TestSessionRegisterAndLookup(t *testing.T) {
	s := NewSession()
	id1 := s.Register(KindList, "List[int]", "first", 0)
	id2 := s.Register(KindArray, "Array[float64]", "", 0)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", id1, id2)
	}
	inst, ok := s.Instance(id1)
	if !ok {
		t.Fatal("Instance(1) not found")
	}
	if inst.Kind != KindList || inst.TypeName != "List[int]" || inst.Label != "first" {
		t.Errorf("instance 1 = %+v", inst)
	}
	if inst.Site.File == "" || inst.Site.Line == 0 {
		t.Errorf("expected call-site capture, got %+v", inst.Site)
	}
	if _, ok := s.Instance(0); ok {
		t.Error("Instance(0) should not exist")
	}
	if _, ok := s.Instance(99); ok {
		t.Error("Instance(99) should not exist")
	}
	if n := s.NumInstances(); n != 2 {
		t.Errorf("NumInstances = %d, want 2", n)
	}
}

func TestSessionSetLabel(t *testing.T) {
	s := NewSession()
	id := s.Register(KindList, "List[int]", "", 0)
	s.SetLabel(id, "population")
	inst, _ := s.Instance(id)
	if inst.Label != "population" {
		t.Errorf("label = %q, want %q", inst.Label, "population")
	}
	// Out-of-range labels must not panic.
	s.SetLabel(0, "x")
	s.SetLabel(42, "x")
}

func TestSessionEmitSequencing(t *testing.T) {
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec})
	id := s.Register(KindList, "List[int]", "", 0)
	for i := 0; i < 5; i++ {
		s.Emit(id, OpInsert, i, i+1)
	}
	events := rec.Events()
	if len(events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Instance != id || e.Op != OpInsert || e.Index != i || e.Size != i+1 {
			t.Errorf("event %d = %v", i, e)
		}
		if e.Thread != 0 {
			t.Errorf("thread capture disabled but event %d has thread %d", i, e.Thread)
		}
	}
}

func TestSessionConcurrentEmit(t *testing.T) {
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec})
	id := s.Register(KindList, "List[int]", "", 0)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Emit(id, OpRead, i, perWorker)
			}
		}()
	}
	wg.Wait()
	events := rec.Events()
	if len(events) != workers*perWorker {
		t.Fatalf("recorded %d events, want %d", len(events), workers*perWorker)
	}
	// Sequence numbers must be a permutation of 1..N after sorting.
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("after sort, event %d has seq %d", i, e.Seq)
		}
	}
}

func TestThreadIDCapture(t *testing.T) {
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec, CaptureThreads: true})
	id := s.Register(KindList, "List[int]", "", 0)

	s.Emit(id, OpRead, 0, 1)
	done := make(chan struct{})
	go func() {
		s.Emit(id, OpRead, 1, 2)
		close(done)
	}()
	<-done

	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Thread == 0 || events[1].Thread == 0 {
		t.Fatal("thread ids not captured")
	}
	if events[0].Thread == events[1].Thread {
		t.Errorf("different goroutines got the same thread id %d", events[0].Thread)
	}
}

func TestCurrentThreadIDStable(t *testing.T) {
	a := CurrentThreadID()
	b := CurrentThreadID()
	if a != b {
		t.Errorf("same goroutine mapped to different ids: %d, %d", a, b)
	}
	if a == 0 {
		t.Error("got zero thread id")
	}
}

func TestEmitAsExplicitThread(t *testing.T) {
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec})
	id := s.Register(KindList, "List[int]", "", 0)
	tid := ExplicitThreadID()
	s.EmitAs(id, OpWrite, 3, 10, tid)
	events := rec.Events()
	if len(events) != 1 || events[0].Thread != tid {
		t.Fatalf("events = %v, want one event with thread %d", events, tid)
	}
	if tid2 := ExplicitThreadID(); tid2 == tid {
		t.Error("ExplicitThreadID returned a duplicate")
	}
}

func TestMemRecorderReset(t *testing.T) {
	rec := NewMemRecorder()
	rec.Record(Event{Seq: 1})
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
	rec.Reset()
	if rec.Len() != 0 || len(rec.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestCountingRecorder(t *testing.T) {
	c := NewCountingRecorder()
	c.Record(Event{Op: OpRead})
	c.Record(Event{Op: OpRead})
	c.Record(Event{Op: OpInsert})
	c.Record(Event{Op: Op(250)}) // out of range must be ignored, not panic
	if got := c.Count(OpRead); got != 2 {
		t.Errorf("Count(Read) = %d, want 2", got)
	}
	if got := c.Count(OpInsert); got != 1 {
		t.Errorf("Count(Insert) = %d, want 1", got)
	}
	if got := c.Count(Op(250)); got != 0 {
		t.Errorf("Count(out-of-range) = %d, want 0", got)
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
}

func TestTeeAndFilterRecorders(t *testing.T) {
	a, b := NewMemRecorder(), NewMemRecorder()
	tee := TeeRecorder{a, b}
	tee.Record(Event{Seq: 1, Instance: 1})
	tee.Record(Event{Seq: 2, Instance: 2})
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("tee delivered %d/%d events", a.Len(), b.Len())
	}

	dst := NewMemRecorder()
	f := InstanceFilter(dst, 2)
	f.Record(Event{Seq: 1, Instance: 1})
	f.Record(Event{Seq: 2, Instance: 2})
	events := dst.Events()
	if len(events) != 1 || events[0].Instance != 2 {
		t.Fatalf("filter kept %v, want only instance 2", events)
	}
}

// The AsyncCollector tests cover the paper's single-channel asynchronous
// collector, which is the one-shard ShardedCollector.
func TestAsyncCollectorBasic(t *testing.T) {
	c := NewShardedCollector(1)
	s := NewSessionWith(Options{Recorder: c})
	id := s.Register(KindList, "List[int]", "", 0)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Emit(id, OpInsert, i, i+1)
	}
	c.Close()
	events := inflated(c.MergedColumns())
	if len(events) != n {
		t.Fatalf("collected %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: seq %d", i, e.Seq)
		}
	}
}

func TestAsyncCollectorConcurrentProducers(t *testing.T) {
	c := NewShardedCollectorSize(1, 64) // small buffer to force producer blocking
	s := NewSessionWith(Options{Recorder: c})
	id := s.Register(KindList, "List[int]", "", 0)
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Emit(id, OpRead, i, perWorker)
			}
		}()
	}
	wg.Wait()
	c.Close()
	c.Close() // idempotent
	if got := c.Len(); got != workers*perWorker {
		t.Fatalf("collected %d events, want %d", got, workers*perWorker)
	}
}

func TestWireRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Instance: 1, Op: OpInsert, Index: 0, Size: 1, Thread: 3},
		{Seq: 2, Instance: 1, Op: OpRead, Index: NoIndex, Size: 1, Thread: 3},
		{Seq: 3, Instance: 2, Op: OpClear, Index: -1, Size: 0, Thread: 0},
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, events); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %v, want %v", i, got[i], events[i])
		}
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(seq uint64, inst uint32, op uint8, index int32, size int32, thread uint32) bool {
		e := Event{
			Seq:      seq,
			Instance: InstanceID(inst),
			Op:       Op(op),
			Index:    int(index),
			Size:     int(size),
			Thread:   ThreadID(thread),
		}
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf)
		if err != nil {
			return false
		}
		if err := writeEvents(sw, []Event{e}); err != nil {
			return false
		}
		if err := sw.Close(); err != nil {
			return false
		}
		sr, err := NewStreamReader(&buf)
		if err != nil {
			return false
		}
		got, err := readAll(sr)
		return err == nil && len(got) == 1 && got[0] == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireLargeBatchSplits(t *testing.T) {
	events := make([]Event, MaxBatch*2+7)
	for i := range events {
		events[i] = Event{Seq: uint64(i + 1), Instance: 1, Op: OpRead, Index: i, Size: len(events)}
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(sw, events); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var batches int
	var total int
	for {
		b, err := readBatch(sr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > MaxBatch {
			t.Fatalf("batch of %d exceeds MaxBatch", len(b))
		}
		batches++
		total += len(b)
	}
	if total != len(events) {
		t.Fatalf("decoded %d events, want %d", total, len(events))
	}
	if batches != 3 {
		t.Errorf("got %d batches, want 3", batches)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader([]byte("NOTDSSPY"))); err == nil {
		t.Error("expected error for bad magic")
	}
	var buf bytes.Buffer
	buf.WriteString("DSSPY1\n")
	buf.WriteByte(0x42) // unknown frame
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readBatch(sr); err == nil {
		t.Error("expected error for unknown frame kind")
	}
}

func TestSocketCollectorRoundTrip(t *testing.T) {
	srv, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DialCollector("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionWith(Options{Recorder: rec})
	id := s.Register(KindList, "List[int]", "", 0)
	const n = 5000
	for i := 0; i < n; i++ {
		s.Emit(id, OpInsert, i, i+1)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("closing producer: %v", err)
	}
	srv.WaitStreams(1) // Close would cut a stream still in the listen backlog
	if err := srv.Close(); err != nil {
		t.Fatalf("closing server: %v", err)
	}
	events := inflated(srv.Columns())
	if len(events) != n {
		t.Fatalf("server received %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Index != i {
			t.Fatalf("event %d corrupted in transit: %v", i, e)
		}
	}
}

func TestSocketCollectorMultipleProducers(t *testing.T) {
	srv, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession() // shared sequencing, distinct connections
	const producers, perProducer = 3, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		rec, err := DialCollector("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		id := s.Register(KindList, "List[int]", "", 0)
		wg.Add(1)
		go func(rec *SocketRecorder, id InstanceID) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				rec.Record(Event{Seq: s.seq.Add(1), Instance: id, Op: OpRead, Index: i, Size: perProducer})
			}
			if err := rec.Close(); err != nil {
				t.Errorf("producer close: %v", err)
			}
		}(rec, id)
	}
	wg.Wait()
	// Close cuts connections still waiting in the listen backlog, so wait
	// for every producer stream to be accepted and finished first.
	srv.WaitStreams(producers)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(inflated(srv.Columns())); got != producers*perProducer {
		t.Fatalf("received %d events, want %d", got, producers*perProducer)
	}
}

func TestSessionString(t *testing.T) {
	s := NewSession()
	s.Register(KindList, "List[int]", "", 0)
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

// captureConn is a net.Conn that keeps every byte written to it; the socket
// recorder uses no other method than Write, SetWriteDeadline and Close.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }
func (c *captureConn) Close() error                     { return nil }

// TestSocketRecorderFramesByteIdentical pins the column buffer's wire
// output: the same event stream — handed over per event, as []Event batches
// and as producer column batches — must put exactly the bytes on the wire
// that a []Event buffer flushed at the same points puts there: a frame
// write once 1024 events are buffered, the tail and end marker at Close.
func TestSocketRecorderFramesByteIdentical(t *testing.T) {
	var events []Event
	for i := 0; i < 5000; i++ {
		events = append(events, Event{Seq: uint64(i + 1), Instance: InstanceID(1 + i/40%5), Op: Op(1 + i%3), Thread: ThreadID(i / 700), Index: i % 97, Size: 97})
	}
	conn := &captureConn{}
	sock, err := NewSocketRecorder(conn)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sw, err := NewStreamWriter(&want)
	if err != nil {
		t.Fatal(err)
	}
	var pending []Event
	for lo, step := 0, 0; lo < len(events); step++ {
		hi := min(len(events), lo+[]int{1, 300, 64, 2000, 7}[step%5])
		switch step % 3 {
		case 0:
			for _, e := range events[lo:hi] {
				sock.Record(e)
			}
		case 1:
			sock.RecordBatch(events[lo:hi])
		default:
			b := pooledColumns(hi - lo)
			b.AppendEvents(events[lo:hi])
			sock.RecordColumns(0, b)
		}
		// The reference flushes where the old []Event buffer did.
		for _, e := range events[lo:hi] {
			pending = append(pending, e)
			if step%3 == 0 && len(pending) >= DefaultSocketBatch {
				writeEvents(sw, pending)
				pending = pending[:0]
			}
		}
		if step%3 != 0 && len(pending) >= DefaultSocketBatch {
			writeEvents(sw, pending)
			pending = pending[:0]
		}
		lo = hi
	}
	if err := sock.Close(); err != nil {
		t.Fatal(err)
	}
	writeEvents(sw, pending)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sock.Stats(); st.Recorded != uint64(len(events)) || st.Delivered != uint64(len(events)) {
		t.Fatalf("stats = %+v, want %d recorded and delivered", st, len(events))
	}
	if !bytes.Equal(conn.buf.Bytes(), want.Bytes()) {
		t.Fatalf("socket wrote %d bytes, a []Event buffer flushed at the same points writes %d; streams differ", conn.buf.Len(), want.Len())
	}
}
