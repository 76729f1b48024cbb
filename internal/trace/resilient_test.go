package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsspy/internal/faultnet"
)

// The resilience suite drives the full producer→collector pipeline through
// injected faults and asserts the delivery/accounting invariant on the
// producer side:
//
//	Recorded == Delivered + Dropped + OnDisk + Buffered
//
// plus, where the fault is deterministic enough (sender-side cuts mid-frame),
// exact end-to-end conservation: every recorded event is on the server, on
// disk, or counted dropped.

func checkInvariant(t *testing.T, st ResilientStats) {
	t.Helper()
	if st.Recorded != st.Delivered+st.Dropped+st.OnDisk+st.Buffered {
		t.Fatalf("invariant violated: recorded %d != delivered %d + dropped %d + on disk %d + buffered %d",
			st.Recorded, st.Delivered, st.Dropped, st.OnDisk, st.Buffered)
	}
}

func uniqueSeqs(events []Event) map[uint64]int {
	seen := make(map[uint64]int, len(events))
	for _, e := range events {
		seen[e.Seq]++
	}
	return seen
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func testEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Seq: uint64(i + 1), Instance: InstanceID(i%4 + 1), Op: OpInsert, Index: i, Size: i, Thread: 1}
	}
	return out
}

// TestResilientSurvivesMidStreamReset kills the first connection after a byte
// budget that tears a frame in half. The recorder must spill the failed
// batch, reconnect, replay, and deliver everything: zero loss, zero
// duplicates, exact conservation on both ends.
func TestResilientSurvivesMidStreamReset(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	addr := cs.Addr().String()

	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			// Budget chosen to die inside the second batch frame: header 7 +
			// frame (5+32*38+4=1225) = 1232 delivered, then 768 bytes of torn
			// frame 2.
			return faultnet.Wrap(conn, faultnet.Options{FailAfterBytes: 2000}), nil
		}
		return conn, nil
	}

	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		SpillDir:    t.TempDir(),
		BatchSize:   32,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 5000
	for _, e := range testEvents(total) {
		rr.Record(e)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := rr.Stats()
		return st.OnDisk == 0 && rr.Connected()
	})
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := rr.Stats()
	checkInvariant(t, st)
	if st.Buffered != 0 {
		t.Fatalf("events still buffered after close: %d", st.Buffered)
	}
	if st.Recorded != total {
		t.Fatalf("recorded %d, want %d", st.Recorded, total)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d events despite a working spill", st.Dropped)
	}
	if st.Reconnects < 1 {
		t.Fatal("no reconnect happened")
	}
	if st.Replayed == 0 {
		t.Fatal("nothing was replayed from the spill")
	}

	cs.WaitStreams(2)
	if err := cs.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	seqs := uniqueSeqs(inflated(cs.Columns()))
	if len(seqs) != total {
		t.Fatalf("server has %d unique events, want %d", len(seqs), total)
	}
	for seq, n := range seqs {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	ss := cs.ServerStats()
	if ss.Accepted != 2 {
		t.Fatalf("server accepted %d conns, want 2", ss.Accepted)
	}
	if ss.SalvagedEvents() == 0 {
		t.Fatal("first connection's partial stream was not salvaged")
	}
}

// TestResilientCollectorRestart closes the collector mid-run and brings a new
// one up on a fresh address. Everything recorded while the collector was down
// must come back from the spill; the producer-side invariant holds
// throughout.
func TestResilientCollectorRestart(t *testing.T) {
	cs1, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var addr atomic.Value
	addr.Store(cs1.Addr().String())
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) }

	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		SpillDir:    t.TempDir(),
		BatchSize:   16,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	events := testEvents(3000)
	for _, e := range events[:1000] {
		rr.Record(e)
	}
	waitFor(t, 5*time.Second, func() bool { return rr.Stats().Delivered >= 900 })

	cs1.Abort() // collector crash
	for _, e := range events[1000:2000] {
		rr.Record(e)
		checkInvariant(t, rr.Stats())
	}

	cs2, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	addr.Store(cs2.Addr().String())

	for _, e := range events[2000:] {
		rr.Record(e)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := rr.Stats()
		return rr.Connected() && st.OnDisk == 0
	})
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := rr.Stats()
	checkInvariant(t, st)
	if st.Reconnects < 1 {
		t.Fatal("recorder never reconnected to the restarted collector")
	}
	if st.Replayed == 0 {
		t.Fatal("spill was never replayed after the restart")
	}
	if st.OnDisk != 0 {
		t.Fatalf("%d events stranded on disk with a live collector", st.OnDisk)
	}

	// The second collector must hold every event recorded after the new
	// address went live, and everything replayed from the spill.
	cs2.WaitStreams(1)
	cs2.Close()
	seqs := uniqueSeqs(inflated(cs2.Columns()))
	for _, e := range events[2000:] {
		if seqs[e.Seq] == 0 {
			t.Fatalf("event %d recorded after restart missing from new collector", e.Seq)
		}
	}
	if uint64(len(seqs)) < st.Replayed {
		t.Fatalf("collector has %d unique events, fewer than the %d replayed", len(seqs), st.Replayed)
	}
}

// TestResilientWithoutSpillCountsDrops runs with no spill dir and a dialer
// that gives up: events recorded while disconnected are dropped — counted,
// never lost silently, and the producer is never blocked or crashed.
func TestResilientWithoutSpillCountsDrops(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	addr := cs.Addr().String()

	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return faultnet.Wrap(conn, faultnet.Options{FailAfterBytes: 1500}), nil
		}
		return conn, nil
	}
	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		BatchSize:   32,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 2000
	for _, e := range testEvents(total) {
		rr.Record(e)
	}
	waitFor(t, 5*time.Second, func() bool { return rr.Connected() })
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := rr.Stats()
	checkInvariant(t, st)
	if st.OnDisk != 0 || st.Spilled != 0 {
		t.Fatalf("spill used despite being disabled: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("disconnected recording with no spill must count drops")
	}
	if st.Recorded != total {
		t.Fatalf("recorded %d, want %d", st.Recorded, total)
	}

	// Exact conservation: the sender cut mid-frame, so the server holds
	// precisely the delivered events.
	cs.WaitStreams(2)
	cs.Close()
	if got := uint64(len(uniqueSeqs(inflated(cs.Columns())))); got+st.Dropped != total {
		t.Fatalf("server %d + dropped %d != recorded %d", got, st.Dropped, total)
	}
}

// TestResilientGivesUpAfterMaxRetries: with the collector gone for good and a
// retry budget, the recorder stops dialing and runs spill-only. Post-mortem
// recovery of the WAL plus the drop counters accounts for every event.
func TestResilientGivesUpAfterMaxRetries(t *testing.T) {
	dial := faultnet.FlakyDialer(func() (net.Conn, error) {
		return nil, os.ErrDeadlineExceeded // never reachable
	}, 1<<30, faultnet.Options{})

	spillDir := t.TempDir()
	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		SpillDir:    spillDir,
		BatchSize:   8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for _, e := range testEvents(total) {
		rr.Record(e)
	}
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := rr.Stats()
	checkInvariant(t, st)
	if st.Delivered != 0 {
		t.Fatalf("delivered %d events with no collector", st.Delivered)
	}
	if st.OnDisk != total {
		t.Fatalf("on disk %d, want all %d", st.OnDisk, total)
	}
	if st.SpillPath == "" {
		t.Fatal("no spill path reported for post-mortem recovery")
	}

	// Post-mortem: the WAL holds every event.
	_, runs, rec, err := RecoverSessionColumns(st.SpillPath)
	if err != nil {
		t.Fatal(err)
	}
	if events := inflateRuns(runs); len(events) != total {
		t.Fatalf("post-mortem recovery got %d events, want %d: %s", len(events), total, rec)
	}
	if rec.SkippedFrames != 0 {
		t.Fatalf("WAL corrupt: %s", rec)
	}
}

// TestResilientSpillReplayChunked records overlapping, out-of-Seq-order
// batches from two goroutines while the link is down, so the spill WAL holds
// frames larger than BatchSize in no particular order. After reconnect the
// collector must receive every spilled event exactly once, in ascending Seq,
// in frames of at most BatchSize events.
func TestResilientSpillReplayChunked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		mu       sync.Mutex
		frames   []int
		received []Event
	)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		sr, err := NewStreamReader(conn)
		if err != nil {
			served <- err
			return
		}
		for {
			batch, err := readBatch(sr)
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				served <- err
				return
			}
			mu.Lock()
			frames = append(frames, len(batch))
			received = append(received, batch...)
			mu.Unlock()
		}
	}()

	var up atomic.Bool
	dial := func() (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("link down")
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	const batchSize = 64
	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		SpillDir:    t.TempDir(),
		BatchSize:   batchSize,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Goroutine g records the blocks of 50 Seqs with index ≡ g (mod 2), last
	// block first and each block reversed. Two 50-event batches fill one
	// 100-event spill frame, so replay has to split them.
	const blocks, perBlock = 40, 50
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := blocks - 2 + g; b >= 0; b -= 2 {
				batch := make([]Event, perBlock)
				for i := range batch {
					seq := uint64(b*perBlock + perBlock - i)
					batch[i] = Event{Seq: seq, Instance: InstanceID(seq%3 + 1), Op: OpRead, Index: int(seq), Size: 1}
				}
				rr.RecordBatch(batch)
			}
		}(g)
	}
	wg.Wait()
	const total = blocks * perBlock
	st := rr.Stats()
	checkInvariant(t, st)
	if st.OnDisk != total || st.Delivered != 0 {
		t.Fatalf("link down: on disk %d, delivered %d; want %d, 0", st.OnDisk, st.Delivered, total)
	}

	up.Store(true)
	waitFor(t, 5*time.Second, func() bool { return rr.Stats().OnDisk == 0 && rr.Connected() })
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("collector stream: %v", err)
	}
	st = rr.Stats()
	checkInvariant(t, st)
	if st.Delivered != total || st.Replayed != total || st.Dropped != 0 {
		t.Fatalf("delivered %d (replayed %d), dropped %d; want %d replayed, 0 dropped",
			st.Delivered, st.Replayed, st.Dropped, total)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(received) != total {
		t.Fatalf("collector received %d events, want %d", len(received), total)
	}
	for i, e := range received {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d: want every spilled event once, in ascending Seq", i, e.Seq)
		}
	}
	for i, n := range frames {
		if n > batchSize {
			t.Fatalf("replay frame %d carries %d events, above BatchSize %d", i, n, batchSize)
		}
	}
}

// TestResilientCorruptSpillAccounted corrupts the WAL while the collector is
// away. On replay the checksum catches the damaged frame; its events are
// counted dropped and everything else is delivered. Exact conservation holds.
func TestResilientCorruptSpillAccounted(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	addr := cs.Addr().String()

	var allow atomic.Bool
	dial := func() (net.Conn, error) {
		if !allow.Load() {
			return nil, os.ErrDeadlineExceeded
		}
		return net.Dial("tcp", addr)
	}

	spillDir := t.TempDir()
	rr, err := NewResilientRecorder(ResilientOptions{
		Dial:        dial,
		SpillDir:    spillDir,
		BatchSize:   64,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 640
	for _, e := range testEvents(total) {
		rr.Record(e)
	}
	st := rr.Stats()
	checkInvariant(t, st)
	if st.OnDisk != total {
		t.Fatalf("on disk %d, want %d", st.OnDisk, total)
	}

	// Flip one bit inside the first frame's payload: 64 events go bad.
	raw, err := os.ReadFile(st.SpillPath)
	if err != nil {
		t.Fatal(err)
	}
	// v3 frame layout: 7 magic, kind byte, uvarint payload length, payload,
	// CRC. Corrupt a payload byte past the count uvarint so the declared
	// batch size (and thus the drop accounting) survives.
	_, k := binary.Uvarint(raw[8:])
	if k <= 0 {
		t.Fatal("could not decode spill frame length prefix")
	}
	raw[8+k+5] ^= 0x20
	if err := os.WriteFile(st.SpillPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	allow.Store(true)
	waitFor(t, 5*time.Second, func() bool {
		s := rr.Stats()
		return rr.Connected() && s.OnDisk == 0
	})
	if err := rr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st = rr.Stats()
	checkInvariant(t, st)
	if st.Dropped != 64 {
		t.Fatalf("dropped %d, want exactly the 64 events of the corrupt frame", st.Dropped)
	}
	if st.Delivered != total-64 {
		t.Fatalf("delivered %d, want %d", st.Delivered, total-64)
	}

	cs.WaitStreams(1)
	cs.Close()
	if got := uint64(len(uniqueSeqs(inflated(cs.Columns())))); got+st.Dropped != total {
		t.Fatalf("server %d + dropped %d != recorded %d", got, st.Dropped, total)
	}
}

// TestResilientRecordAfterClose: late events are counted, never a panic.
func TestResilientRecordAfterClose(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	rr, err := NewResilientRecorder(ResilientOptions{Network: "tcp", Addr: cs.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	rr.Record(Event{Seq: 1, Instance: 1, Op: OpRead})
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	rr.Record(Event{Seq: 2, Instance: 1, Op: OpRead})
	st := rr.Stats()
	checkInvariant(t, st)
	if st.Dropped != 1 || st.Recorded != 2 {
		t.Fatalf("after-close accounting wrong: %+v", st)
	}
	if err := rr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestResilientFinishSessionShipsRegistry: the collector rebuilds a replay
// session from the registry frames a resilient producer ships at shutdown.
func TestResilientFinishSessionShipsRegistry(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	rr, err := NewResilientRecorder(ResilientOptions{Network: "tcp", Addr: cs.Addr().String(), BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSessionWith(Options{Recorder: rr})
	id := sess.Register(KindQueue, "chan work", "pipeline", 0)
	for i := 0; i < 10; i++ {
		sess.Emit(id, OpInsert, i, i+1)
	}
	if err := rr.FinishSession(sess); err != nil {
		t.Fatal(err)
	}

	cs.WaitStreams(1)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(inflated(cs.Columns())); got != 10 {
		t.Fatalf("collector got %d events, want 10", got)
	}
	replay := cs.Session()
	inst, ok := replay.Instance(id)
	if !ok {
		t.Fatal("registry did not survive the trip")
	}
	if inst.TypeName != "chan work" || inst.Label != "pipeline" || inst.Kind != KindQueue {
		t.Fatalf("instance mangled: %+v", inst)
	}
}

// TestServerSurvivesAcceptErrors: injected transient Accept failures are
// retried with backoff; the producer connection queued in the backlog is
// eventually served in full.
func TestServerSurvivesAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCollectorServer(faultnet.WrapListener(ln, 3, faultnet.Options{}),
		ServerOptions{AcceptBackoffMax: 10 * time.Millisecond})
	defer cs.Close()

	rec, err := DialCollector("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testEvents(50) {
		rec.Record(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	cs.WaitStreams(1)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(inflated(cs.Columns())); got != 50 {
		t.Fatalf("server got %d events, want 50", got)
	}
	ss := cs.ServerStats()
	if ss.AcceptRetries != 3 {
		t.Fatalf("accept retries = %d, want 3", ss.AcceptRetries)
	}
}

// TestServerSkipsCorruptFramesInFlight: a producer whose link flips bits has
// its checksum-failed frames skipped and counted; clean frames still land.
func TestServerSkipsCorruptFramesInFlight(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	raw, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every 3rd write. Writes are: header+frame1, frame2, frame3,
	// frame4, end marker — so frame 2 (write 3) goes bad (frame payload bit
	// flip), everything else is clean.
	conn := faultnet.Wrap(raw, faultnet.Options{CorruptEveryN: 3})
	rec, err := NewSocketRecorder(conn)
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(4 * DefaultSocketBatch)
	for _, e := range events {
		rec.Record(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	cs.WaitStreams(1)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	ss := cs.ServerStats()
	if len(ss.Conns) != 1 {
		t.Fatalf("conns = %d, want 1", len(ss.Conns))
	}
	c := ss.Conns[0]
	if c.SkippedFrames == 0 {
		t.Fatal("no corrupt frame was detected")
	}
	if !c.Complete {
		t.Fatalf("stream should have completed around the skipped frames: %+v", c)
	}
	got := len(inflated(cs.Columns()))
	want := len(events) - c.SkippedFrames*DefaultSocketBatch
	if got != want {
		t.Fatalf("server kept %d events, want %d (%d frames skipped)", got, want, c.SkippedFrames)
	}
}

// TestServerConnCapAndDeadline: MaxConns rejects the overflow connection;
// ConnTimeout reaps a silent producer but salvages what it sent.
func TestServerConnCapAndDeadline(t *testing.T) {
	cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{
		MaxConns:    1,
		ConnTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	// First producer: sends a batch, then goes silent — the deadline reaps
	// it, salvaging the batch.
	rec, err := DialCollector("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testEvents(DefaultSocketBatch) {
		rec.Record(e) // exactly one batch: flushed, then silence
	}
	waitFor(t, 2*time.Second, func() bool { return len(inflated(cs.Columns())) == DefaultSocketBatch })

	// Second producer while the first is still connected: over the cap.
	conn2, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return cs.ServerStats().Rejected == 1 })
	conn2.Close()

	// The deadline fires on the silent producer; its stream ends partial.
	cs.WaitStreams(1)
	rec.Close()
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	ss := cs.ServerStats()
	if ss.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", ss.Rejected)
	}
	if len(ss.Conns) != 1 {
		t.Fatalf("served conns = %d, want 1", len(ss.Conns))
	}
	c := ss.Conns[0]
	if c.Complete {
		t.Fatal("reaped connection cannot be complete")
	}
	if !c.Salvaged() || c.Events != DefaultSocketBatch {
		t.Fatalf("salvage failed: %+v", c)
	}
	if ss.SalvagedEvents() != DefaultSocketBatch {
		t.Fatalf("salvaged events = %d, want %d", ss.SalvagedEvents(), DefaultSocketBatch)
	}
}

// TestResilientUnderWriteDelays: a slow link (delay per write) does not break
// accounting, only latency.
func TestResilientUnderWriteDelays(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	addr := cs.Addr().String()

	dial := faultnet.FlakyDialer(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, 0, faultnet.Options{WriteDelay: time.Millisecond, MaxWrite: 512})

	rr, err := NewResilientRecorder(ResilientOptions{Dial: dial, SpillDir: t.TempDir(), BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for _, e := range testEvents(total) {
		rr.Record(e)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	st := rr.Stats()
	checkInvariant(t, st)
	if st.Delivered != total || st.Dropped != 0 {
		t.Fatalf("slow link lost events: %+v", st)
	}

	cs.WaitStreams(1)
	cs.Close()
	if got := len(uniqueSeqs(inflated(cs.Columns()))); got != total {
		t.Fatalf("server got %d unique events, want %d", got, total)
	}
}
