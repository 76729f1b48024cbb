package core

// The global detector is promoted lazily: while one thread has written an
// instance, that thread's detector stands in for it, and the first span
// bringing a second thread copies it. These tests hold the promoted fold
// equal to the retained-events reference wherever the second thread joins,
// and pin the open-run count the single segmentation implies.

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

const (
	promoteA trace.ThreadID = 1
	promoteB trace.ThreadID = 2
)

// scriptA is the first thread's phases: a back-insertion fill and a sort
// (Sort-After-Insert reads that adjacency off the interleaved run stream),
// a forward write pass, three forward read passes and back deletions.
func scriptA() []trace.Event {
	const n = 128
	var evs []trace.Event
	for i := 0; i < n; i++ {
		evs = append(evs, trace.Event{Op: trace.OpInsert, Index: i, Size: i + 1})
	}
	evs = append(evs, trace.Event{Op: trace.OpSort, Index: trace.NoIndex, Size: n})
	for i := 0; i < n; i++ {
		evs = append(evs, trace.Event{Op: trace.OpWrite, Index: i, Size: n})
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			evs = append(evs, trace.Event{Op: trace.OpRead, Index: i, Size: n})
		}
	}
	for i := n - 1; i >= n/2; i-- {
		evs = append(evs, trace.Event{Op: trace.OpDelete, Index: i, Size: i})
	}
	for i := range evs {
		evs[i].Thread = promoteA
	}
	return evs
}

// scriptB is the joining thread: two forward read passes starting at
// position start, then a backward write pass.
func scriptB(start int) []trace.Event {
	const n = 64
	var evs []trace.Event
	for pass := 0; pass < 2; pass++ {
		for i := start; i < n; i++ {
			evs = append(evs, trace.Event{Op: trace.OpRead, Index: i, Size: n})
		}
		start = 0
	}
	for i := n - 1; i >= 0; i-- {
		evs = append(evs, trace.Event{Op: trace.OpWrite, Index: i, Size: n})
	}
	for i := range evs {
		evs[i].Thread = promoteB
	}
	return evs
}

// promoteStream is the first soloLen events of thread A alone, then the rest
// of A interleaved with B in blocks of block events (B first), stamped with
// sequence numbers for instance id.
func promoteStream(id trace.InstanceID, soloLen, block, bStart int) []trace.Event {
	a, b := scriptA(), scriptB(bStart)
	out := append([]trace.Event(nil), a[:soloLen]...)
	a = a[soloLen:]
	for len(a) > 0 || len(b) > 0 {
		k := min(block, len(b))
		out, b = append(out, b[:k]...), b[k:]
		k = min(block, len(a))
		out, a = append(out, a[:k]...), a[k:]
	}
	for i := range out {
		out[i].Seq = uint64(i + 1)
		out[i].Instance = id
	}
	return out
}

// eventOracle is the retained-events reference a streamed row is held to:
// every reducer driven one event at a time through its per-event form over
// the instance's events, with patterns judged per thread (byThread) and
// merged in thread-id order.
type eventOracle struct {
	summary     *pattern.Summary // thread-aware, what the row reports
	interleaved *pattern.Summary // the whole instance stream, what regularity reads
	regular     bool
	useCases    []usecase.UseCase
}

// instanceEvents returns the events of instance id in sequence order.
func instanceEvents(events []trace.Event, id trace.InstanceID) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Instance == id {
			out = append(out, e)
		}
	}
	slices.SortStableFunc(out, func(a, b trace.Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// byThread splits one instance's events per thread, ordered by thread id,
// each thread's events in stream order.
func byThread(events []trace.Event) [][]trace.Event {
	m := make(map[trace.ThreadID][]trace.Event)
	for _, e := range events {
		m[e.Thread] = append(m[e.Thread], e)
	}
	ids := make([]trace.ThreadID, 0, len(m))
	for th := range m {
		ids = append(ids, th)
	}
	slices.Sort(ids)
	out := make([][]trace.Event, len(ids))
	for i, th := range ids {
		out[i] = m[th]
	}
	return out
}

// foldEvents computes the eventOracle of one instance's events.
func foldEvents(inst trace.Instance, events []trace.Event, cfg Config) eventOracle {
	var ss profile.StreamStats
	var sc profile.StreamContention
	u := usecase.NewStream(cfg.Thresholds)
	global := pattern.NewStreamDetector(cfg.Pattern, false)
	runs := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
	for _, e := range events {
		ss.Fold(e)
		sc.Fold(e)
		u.Event(e)
		global.Feed(e)
		if r, ok := runs.Feed(e); ok {
			u.Run(r.Op, r.Len())
		}
	}
	global.Finish()
	if r, ok := runs.Finish(); ok {
		u.Run(r.Op, r.Len())
	}
	sum := &pattern.Summary{}
	for _, thread := range byThread(events) {
		d := pattern.NewStreamDetector(cfg.Pattern, true)
		for _, e := range thread {
			d.Feed(e)
		}
		d.Finish()
		sum.Merge(d.Summary())
	}
	for _, p := range sum.Patterns {
		u.Pattern(p)
	}
	st := ss.Snapshot()
	var ct *profile.Contention
	if st.Threads > 1 {
		ct = sc.Snapshot()
	}
	return eventOracle{
		summary:     sum,
		interleaved: global.Summary(),
		regular:     pattern.RegularityFrom(global.Summary(), st, cfg.Regularity),
		useCases:    u.Finish(inst, st, ct),
	}
}

// checkAgainstEvents compares every row of rep with the retained-events
// reference over events: the thread-aware pattern summary, the regularity
// verdict and the use cases.
func checkAgainstEvents(t *testing.T, cfg Config, rep *Report, events []trace.Event, at string) {
	t.Helper()
	for _, ir := range rep.Instances {
		inst := ir.Profile.Instance
		want := foldEvents(inst, instanceEvents(events, inst.ID), cfg)
		if !reflect.DeepEqual(ir.Summary, want.summary) {
			t.Fatalf("%s: pattern summary diverged:\n stream: %+v\n   want: %+v", at, ir.Summary, want.summary)
		}
		if ir.Regular != want.regular {
			t.Fatalf("%s: regular = %v, want %v", at, ir.Regular, want.regular)
		}
		if !reflect.DeepEqual(ir.UseCases, want.useCases) {
			t.Fatalf("%s: use cases diverged:\n stream: %v\n   want: %v", at, ir.UseCases, want.useCases)
		}
	}
}

// checkInterleaved compares the summary the regularity check reads — the
// promoted global detector's, or the solo detector's standing in for it,
// with the open runs flushed — with a pattern summary of the whole
// interleaved stream. Regular alone is too coarse to notice a global
// detector that missed part of the stream.
func checkInterleaved(t *testing.T, a *StreamAnalyzer, st *instanceStream, events []trace.Event, at string) {
	t.Helper()
	c := st.clone()
	c.finalize(a.d, a.registry())
	got := c.regularitySummary()
	inst, _ := a.session.Instance(st.id)
	want := foldEvents(inst, instanceEvents(events, st.id), a.d.cfg).interleaved
	got.Patterns = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: interleaved-stream summary diverged:\n stream: %+v\n   want: %+v", at, got, want)
	}
}

// TestPromotionDifferential feeds one instance batch by batch, thread A
// alone and then joined by thread B, and compares a Snapshot after every
// batch — before, at and after promotion — and the final report with the
// retained-events reference, under the default segmentation and under one
// that needs the separate default-options run segmenter.
func TestPromotionDifferential(t *testing.T) {
	cases := []struct {
		name                          string
		soloLen, block, batch, bStart int
	}{
		// B's first event lands inside a 100-event batch (320 = 3·100+20).
		{"mid-span", 320, 8, 100, 0},
		// B joins at a batch boundary; the batch is two-threaded.
		{"boundary-mixed", 320, 8, 64, 0},
		// B joins at a batch boundary with a span of its own.
		{"boundary-foreign-span", 320, 16, 16, 0},
		// A is mid-way through a read run; B's first read continues its
		// positions, so the promoted global run extends across threads.
		{"mid-run", 300, 1, 50, 44},
		// B joins late in A's insert phase; the promoting batch also holds
		// A's sort, which closes A's long per-thread insert run — a run the
		// interleaved run stream must not see.
		{"join-before-sort", 120, 8, 100, 0},
		// Two threads from the first batch: no solo phase at all.
		{"two-thread-first-batch", 0, 4, 64, 0},
	}
	wide := DefaultConfig()
	wide.Pattern.Segment = profile.SegmentOptions{MaxStep: 2, AllowRepeat: true}
	configs := []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"wide-segment", wide}}

	for _, c := range cases {
		for _, cc := range configs {
			t.Run(c.name+"/"+cc.name, func(t *testing.T) {
				s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
				id := s.Register(trace.KindList, "List[int]", "promote", 0)
				events := promoteStream(id, c.soloLen, c.block, c.bStart)

				a := NewWith(cc.cfg).NewStreamAnalyzer(1)
				a.Attach(s)
				if streamOf(a, id) != nil {
					t.Fatal("instance state exists before any event")
				}
				var cb trace.ColumnBatch
				joined := false
				for lo := 0; lo < len(events); lo += c.batch {
					hi := min(lo+c.batch, len(events))
					for _, e := range events[lo:hi] {
						joined = joined || e.Thread == promoteB
					}
					cb.Reset()
					cb.AppendEvents(events[lo:hi])
					a.FeedColumns(&cb)
					a.settle() // FeedColumns may return before its batch is folded
					st := streamOf(a, id)
					if promoted := st.global != nil; promoted != joined {
						t.Fatalf("after events [0,%d): global promoted = %v, second thread seen = %v", hi, promoted, joined)
					}
					at := fmt.Sprintf("snapshot at %d", hi)
					checkInterleaved(t, a, st, events[:hi], at)
					checkAgainstEvents(t, cc.cfg, a.Snapshot(), events[:hi], at)
				}
				rep := a.Close()
				checkAgainstEvents(t, cc.cfg, rep, events, "close")
				if len(rep.UseCases()) == 0 || !rep.Instances[0].Regular {
					t.Fatalf("scenario detects nothing; the differential is vacuous: %v", rep.UseCases())
				}
			})
		}
	}
}

// TestOpenRunsCountsOneSegmentation: a one-thread instance holds exactly
// one open run — its thread's run is the interleaved run — and a second
// thread adds its own run plus the promoted global one.
func TestOpenRunsCountsOneSegmentation(t *testing.T) {
	s := trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}})
	id := s.Register(trace.KindList, "List[int]", "open-runs", 0)
	events := promoteStream(id, 300, 8, 0)
	a := New().NewStreamAnalyzer(1)
	a.Attach(s)

	var cb trace.ColumnBatch
	cb.AppendEvents(events[:300])
	a.FeedColumns(&cb)
	if got := a.Snapshot().Stats.Streaming.OpenRuns; got != 1 {
		t.Fatalf("single-thread instance mid-stream: OpenRuns = %d, want 1", got)
	}

	cb.Reset()
	cb.AppendEvents(events[300:320])
	a.FeedColumns(&cb)
	if got := a.Snapshot().Stats.Streaming.OpenRuns; got != 3 {
		t.Fatalf("after a second thread joined: OpenRuns = %d, want 3", got)
	}
}

// streamOf returns instance id's reducer in a, nil when it has none.
func streamOf(a *StreamAnalyzer, id trace.InstanceID) (found *instanceStream) {
	for _, sh := range a.shards {
		sh.each(func(st *instanceStream) {
			if st.id == id {
				found = st
			}
		})
	}
	return found
}
