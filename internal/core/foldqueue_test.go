package core_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/trace"
)

// corpusReplayLog records every corpus program into one session, saves
// it as a v3 session log and loads it back: the Seq-ordered column runs a
// `dsspy -replay` folds, flattened into one batch.
func corpusReplayLog(t *testing.T) (*trace.Session, *trace.ColumnBatch) {
	t.Helper()
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	for _, p := range corpusPrograms() {
		for _, b := range p.Mix.Behaviors(p.Name) {
			b(s)
		}
	}
	var cb trace.ColumnBatch
	cb.AppendEvents(rec.Events())
	path := filepath.Join(t.TempDir(), "corpus.dslog")
	if err := trace.SaveSessionColumns(path, s, &cb); err != nil {
		t.Fatal(err)
	}
	ls, cols, err := trace.LoadSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	var flat trace.ColumnBatch
	for _, b := range cols {
		flat.AppendRange(b, 0, b.Len())
	}
	if flat.Len() != cb.Len() {
		t.Fatalf("log replays %d events, recorded %d", flat.Len(), cb.Len())
	}
	return ls, &flat
}

// randomCuts splits b into k batches at random boundaries (some empty); each
// is a view that aliases b.
func randomCuts(b *trace.ColumnBatch, k int, rng *rand.Rand) []*trace.ColumnBatch {
	cuts := []int{0, b.Len()}
	for i := 1; i < k; i++ {
		cuts = append(cuts, rng.Intn(b.Len()+1))
	}
	for i := 1; i < len(cuts); i++ { // insertion sort: k is small
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := make([]*trace.ColumnBatch, 0, k)
	for i := 0; i+1 < len(cuts); i++ {
		v := b.Slice(cuts[i], cuts[i+1])
		out = append(out, &v)
	}
	return out
}

// foldBatches folds batches through a fresh n-shard analyzer and closes it.
func foldBatches(s *trace.Session, n int, batches []*trace.ColumnBatch) *core.Report {
	sa := core.New().NewStreamAnalyzer(n)
	sa.Attach(s)
	for _, b := range batches {
		sa.FeedColumns(b)
	}
	return sa.Close()
}

// TestFoldQueuesShardInvariant: a corpus replay log handed to FeedColumns in
// batches cut at random boundaries renders byte-identical text and JSON at
// 1, 2, 3 and 8 shards — every shard's fold worker folds its instances'
// spans in hand-over order whatever the cut and the shard count.
func TestFoldQueuesShardInvariant(t *testing.T) {
	s, flat := corpusReplayLog(t)
	want := reportBytes(t, foldBatches(s, 1, []*trace.ColumnBatch{flat}))
	rng := rand.New(rand.NewSource(20))
	for _, shards := range []int{1, 2, 3, 8} {
		for _, k := range []int{1, 7, 64} {
			got := reportBytes(t, foldBatches(s, shards, randomCuts(flat, k, rng)))
			if !bytes.Equal(got, want) {
				t.Fatalf("%d shards, %d random batches: report differs from a one-shard fold of the whole log", shards, k)
			}
		}
	}
}

// TestFeedPiecesShardInvariant: Feed returns its scratch pieces to the pool
// only once every shard has folded them, so one call over a slice many
// pieces long, and a run of calls cut at random boundaries, render what a
// one-shard FeedColumns of the same events does.
func TestFeedPiecesShardInvariant(t *testing.T) {
	s, flat := corpusReplayLog(t)
	want := reportBytes(t, foldBatches(s, 1, []*trace.ColumnBatch{flat}))
	events := flat.Events(nil)
	rng := rand.New(rand.NewSource(4096))
	for _, shards := range []int{1, 2, 3, 8} {
		whole := core.New().NewStreamAnalyzer(shards)
		whole.Attach(s)
		whole.Feed(events...)
		if got := reportBytes(t, whole.Close()); !bytes.Equal(got, want) {
			t.Fatalf("%d shards, one Feed of %d events: report differs from a one-shard FeedColumns", shards, len(events))
		}

		cut := core.New().NewStreamAnalyzer(shards)
		cut.Attach(s)
		rest := events
		for _, b := range randomCuts(flat, 16, rng) {
			cut.Feed(rest[:b.Len()]...)
			rest = rest[b.Len():]
		}
		if got := reportBytes(t, cut.Close()); !bytes.Equal(got, want) {
			t.Fatalf("%d shards, 16 Feed calls cut at random: report differs from a one-shard FeedColumns", shards)
		}
	}
}

// TestSnapshotAfterFeedColumnsSeesEveryBatch: a Snapshot taken after the
// k-th FeedColumns returns equals a one-shard fold of the first k batches,
// although FeedColumns returned before its batch was folded.
func TestSnapshotAfterFeedColumnsSeesEveryBatch(t *testing.T) {
	s, flat := corpusReplayLog(t)
	batches := randomCuts(flat, 6, rand.New(rand.NewSource(6)))
	sa := core.New().NewStreamAnalyzer(3)
	sa.Attach(s)
	for k, b := range batches {
		sa.FeedColumns(b)
		got := reportBytes(t, sa.Snapshot())
		want := reportBytes(t, foldBatches(s, 1, batches[:k+1]))
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot after batch %d differs from a one-shard fold of batches [0,%d]", k, k)
		}
	}
	if got, want := reportBytes(t, sa.Close()), reportBytes(t, foldBatches(s, 1, batches)); !bytes.Equal(got, want) {
		t.Fatal("final report differs from a one-shard fold of every batch")
	}
}

// TestSnapshotConcurrentWithFeedColumns (run under -race by `make check`):
// snapshots taken while another goroutine hands batches over see a growing
// event count that never exceeds what was fed, and the final report equals
// a one-shard fold.
func TestSnapshotConcurrentWithFeedColumns(t *testing.T) {
	s, flat := corpusReplayLog(t)
	batches := randomCuts(flat, 32, rand.New(rand.NewSource(32)))
	sa := core.New().NewStreamAnalyzer(2)
	sa.Attach(s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			sa.FeedColumns(b)
		}
	}()
	prev := 0
	for r := 0; r < 8; r++ {
		n := sa.Snapshot().Stats.Events
		if n < prev || n > flat.Len() {
			t.Fatalf("snapshot %d saw %d events, after %d, of %d fed", r, n, prev, flat.Len())
		}
		prev = n
	}
	wg.Wait()
	if got, want := reportBytes(t, sa.Close()), reportBytes(t, foldBatches(s, 1, batches)); !bytes.Equal(got, want) {
		t.Fatal("report after concurrent snapshots differs from a one-shard fold")
	}
}

// feedFrames feeds events to sa the way the daemon's server delivers a
// connection's frames: each frame is copied into one caller-owned slice,
// fed, and the slice overwritten with junk as soon as Feed returns, as the
// server's next frame overwrites it. It closes done when every frame is fed.
func feedFrames(sa *core.StreamAnalyzer, events []trace.Event, frame int, done chan<- struct{}) {
	defer close(done)
	buf := make([]trace.Event, frame)
	junk := trace.Event{Seq: 1, Instance: 1, Op: trace.OpWrite, Thread: 99, Index: -1, Size: -1}
	for lo := 0; lo < len(events); lo += frame {
		part := buf[:copy(buf, events[lo:min(lo+frame, len(events))])]
		sa.Feed(part...)
		for i := range part {
			part[i] = junk
		}
	}
}

// waitInFlight polls until the feeder is done or holds cap pieces in
// flight, failing if it ever holds more than cap.
func waitInFlight(t *testing.T, sa *core.StreamAnalyzer, done <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := sa.PiecesInFlight()
		if n > sa.FeedCap() {
			t.Fatalf("%d pieces in flight, cap %d", n, sa.FeedCap())
		}
		select {
		case <-done:
			return
		default:
		}
		if n == sa.FeedCap() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeder neither finished nor reached the cap: %d of %d pieces in flight", n, sa.FeedCap())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFeedOwnershipOverwrite: Feed copies the caller's events into pieces
// the analyzer owns until every shard has folded them, so a caller that
// overwrites its slice after every Feed — as the server does — still gets
// the report of a FeedColumns over the same events, at 1, 2, 3 and 8 shards.
// The last shard's worker is held while the others run ahead, until the
// feeder reaches the in-flight cap or runs out of frames: a piece returned
// to the pool before that shard folded it would be reused and overwritten
// under it.
func TestFeedOwnershipOverwrite(t *testing.T) {
	s, flat := corpusReplayLog(t)
	want := reportBytes(t, foldBatches(s, 1, []*trace.ColumnBatch{flat}))
	events := flat.Events(nil)
	for _, shards := range []int{1, 2, 3, 8} {
		sa := core.New().NewStreamAnalyzer(shards)
		sa.Attach(s)
		release := sa.HoldShard(shards - 1)
		done := make(chan struct{})
		go feedFrames(sa, events, 512, done)
		waitInFlight(t, sa, done)
		release()
		<-done
		if got := reportBytes(t, sa.Close()); !bytes.Equal(got, want) {
			t.Fatalf("%d shards: report after overwriting every fed frame differs from a FeedColumns of the same events", shards)
		}
		if n := sa.PiecesInFlight(); n != 0 {
			t.Fatalf("%d shards: %d pieces still in flight after Close", shards, n)
		}
	}
}

// TestFeedPiecesInFlightCap: while a shard's worker is held, Feed takes at
// most FeedCap pieces from its pool and then waits for the oldest to be
// folded instead of taking more; released, it finishes and the report is
// whole.
func TestFeedPiecesInFlightCap(t *testing.T) {
	s, flat := corpusReplayLog(t)
	want := reportBytes(t, foldBatches(s, 1, []*trace.ColumnBatch{flat}))
	events := flat.Events(nil)
	for _, shards := range []int{2, 3} {
		sa := core.New().NewStreamAnalyzer(shards)
		sa.Attach(s)
		if len(events)/256 <= sa.FeedCap() {
			t.Fatalf("%d frames cannot reach the cap of %d pieces", len(events)/256, sa.FeedCap())
		}
		release := sa.HoldShard(0)
		done := make(chan struct{})
		go feedFrames(sa, events, 256, done)
		waitInFlight(t, sa, done)
		time.Sleep(20 * time.Millisecond)
		select {
		case <-done:
			t.Fatalf("%d shards: Feed went on with a shard held and %d pieces in flight", shards, sa.PiecesInFlight())
		default:
		}
		if n := sa.PiecesInFlight(); n != sa.FeedCap() {
			t.Fatalf("%d shards: %d pieces in flight while held, cap %d", shards, n, sa.FeedCap())
		}
		release()
		<-done
		if got := reportBytes(t, sa.Close()); !bytes.Equal(got, want) {
			t.Fatalf("%d shards: report after a held shard differs from a FeedColumns of the same events", shards)
		}
	}
}

// TestFeedConcurrentWithSnapshots: two feeders of disjoint instance sets
// and a snapshot loop share one analyzer while shard 0's worker is held and
// released over and over, so feeders wait at the in-flight cap while
// snapshots settle and recycle. Every piece must go back to the pool once
// and only after every shard folded it, whoever recycles it: the final
// report equals a FeedColumns of the same events.
func TestFeedConcurrentWithSnapshots(t *testing.T) {
	s, flat := corpusReplayLog(t)
	want := reportBytes(t, foldBatches(s, 1, []*trace.ColumnBatch{flat}))
	var parts [2][]trace.Event
	for _, e := range flat.Events(nil) {
		parts[e.Instance%2] = append(parts[e.Instance%2], e)
	}
	sa := core.New().NewStreamAnalyzer(2)
	sa.Attach(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			release := sa.HoldShard(0)
			time.Sleep(200 * time.Microsecond)
			release()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sa.Snapshot()
		}
	}()
	var feeders sync.WaitGroup
	for _, part := range parts {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			done := make(chan struct{})
			feedFrames(sa, part, 128, done)
		}()
	}
	feeders.Wait()
	close(stop)
	wg.Wait()
	if got := reportBytes(t, sa.Close()); !bytes.Equal(got, want) {
		t.Fatal("report after concurrent feeders and snapshots differs from a FeedColumns of the same events")
	}
}

// TestFoldWorkersExit: fold workers run only while their queues hold
// batches, so the goroutine count returns to its baseline after Close, and
// also after an analyzer is abandoned unclosed once its queues drain —
// whether FeedColumns or Feed handed the batches over.
func TestFoldWorkersExit(t *testing.T) {
	s, flat := corpusReplayLog(t)
	batches := randomCuts(flat, 16, rand.New(rand.NewSource(16)))
	events := flat.Events(nil)
	settled := func(base int) bool {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}

	base := runtime.NumGoroutine()
	foldBatches(s, 4, batches)
	if !settled(base) {
		t.Fatalf("after Close: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}

	sa := core.New().NewStreamAnalyzer(4)
	sa.Attach(s)
	for _, b := range batches {
		sa.FeedColumns(b)
	}
	if !settled(base) {
		t.Fatalf("abandoned analyzer: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}

	fed := core.New().NewStreamAnalyzer(4)
	fed.Attach(s)
	for lo := 0; lo < len(events); lo += 1024 {
		fed.Feed(events[lo:min(lo+1024, len(events))]...)
	}
	if !settled(base) {
		t.Fatalf("abandoned Feed-only analyzer: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}
	fed.Close()
	if !settled(base) {
		t.Fatalf("after closing a Feed-only analyzer: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
	}
}

// TestSnapshotReusesUnchangedRows: a snapshot gives an instance that folded
// nothing since the previous snapshot that snapshot's row again. What a
// caller does to a snapshot's rows must not reach the next one, a registry
// change must not be served stale, and every snapshot must equal one taken
// by a fresh analyzer over the same events.
func TestSnapshotReusesUnchangedRows(t *testing.T) {
	s, events := recordProgram(corpusPrograms()[19])
	fresh := func(n int) []byte {
		a := core.New().NewStreamAnalyzer(2)
		a.Attach(s)
		a.Feed(events[:n]...)
		return reportBytes(t, a.Snapshot())
	}
	a := core.New().NewStreamAnalyzer(2)
	a.Attach(s)
	half := len(events) / 2
	a.Feed(events[:half]...)
	first := a.Snapshot()
	want := reportBytes(t, first)

	// The caller's edits to the rows it was handed stay its own.
	first.AttachEvents(s, events[:half])
	first.FilterMinConfidence(2)
	for _, ir := range first.Instances {
		ir.Origin = "edited"
	}
	if got := reportBytes(t, a.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("a snapshot after editing the previous one's rows differs from it")
	}

	// A label set since the last snapshot is served, not the cached name.
	s.SetLabel(events[0].Instance, "relabelled")
	if got := reportBytes(t, a.Snapshot()); !bytes.Equal(got, fresh(half)) {
		t.Fatal("a snapshot after a registry change != a fresh analyzer's")
	}
	if !bytes.Contains(reportBytes(t, a.Snapshot()), []byte("relabelled")) {
		t.Fatal("the new label is missing from the snapshot")
	}

	// Instances that fold again are rebuilt; the rest are reused.
	for _, n := range []int{half + 100, len(events)} {
		a.Feed(events[half:n]...)
		half = n
		if got := reportBytes(t, a.Snapshot()); !bytes.Equal(got, fresh(n)) {
			t.Fatalf("the snapshot at %d events != a fresh analyzer's", n)
		}
	}
}
