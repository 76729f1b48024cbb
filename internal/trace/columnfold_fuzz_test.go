// The reducer-level columnar differential lives in an external test package:
// it folds decoded batches through the profile/pattern/usecase reducers, which
// the internal trace test package cannot import (it would cycle).
package trace_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// foldSeedLogBytes builds a genuine v3 session log with enough structural
// variety (several instances, threads, op mix, index patterns) that the
// mutator starts from realistic column shapes. run is the length of each
// instance run: 1 interleaves every event; longer runs, whose thread runs
// straddle instance boundaries, are the shape a sole producer's full shard
// batches hand the fold.
func foldSeedLogBytes(tb testing.TB, run, n int) []byte {
	tb.Helper()
	s := trace.NewSession()
	s.Register(trace.KindList, "List[int]", "jobs", 0)
	s.Register(trace.KindDictionary, "map[int]string", "names", 0)
	s.Register(trace.KindQueue, "Queue[int]", "work", 0)
	thrRun := 1
	if run > 1 {
		thrRun = run * 3 / 2
	}
	events := make([]trace.Event, n)
	for i := range events {
		idx := i % 13
		if i%7 == 0 {
			idx = trace.NoIndex
		}
		events[i] = trace.Event{
			Seq:      uint64(i + 1),
			Instance: trace.InstanceID((i/run)%3 + 1),
			Op:       trace.Op(1 + i%8),
			Index:    idx,
			Size:     i % 29,
			Thread:   trace.ThreadID((i / thrRun) % 4),
		}
	}
	return saveLogBytes(tb, s, events)
}

// foldSpans cuts [0, n) the way the streaming analyzer's feedBatch does: into
// instance runs, each cut again into thread runs. A reducer folded span by
// span must end where a whole-batch or per-event fold ends, because its state
// carries over between the calls.
func foldSpans(cb *trace.ColumnBatch, n int) (instance, thread [][2]int) {
	for i := 0; i < n; {
		j := cb.InstanceRun(i, n)
		instance = append(instance, [2]int{i, j})
		for k := i; k < j; {
			e := cb.ThreadRun(k, j)
			thread = append(thread, [2]int{k, e})
			k = e
		}
		i = j
	}
	return instance, thread
}

// oneEventRunsLogBytes is a log whose every event closes a one-event run:
// linpack's Get/Get/Set on one matrix, each access of another op than the
// one before it or too far from it to continue a run.
func oneEventRunsLogBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	s := trace.NewSession()
	s.Register(trace.KindArray, "Array[float64]", "matrix", 0)
	events := make([]trace.Event, n)
	for i := range events {
		op, idx := trace.OpRead, (i*7)%97
		if i%3 == 2 {
			op = trace.OpWrite
		}
		events[i] = trace.Event{Seq: uint64(i + 1), Instance: 1, Op: op, Index: idx, Size: 97}
	}
	return saveLogBytes(tb, s, events)
}

// shortInstanceRunsLogBytes is a log of 1–2-event instance runs across three
// threads over five instances: the shape a shard batch is grouped by
// instance for before it is folded.
func shortInstanceRunsLogBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	s := trace.NewSession()
	for i := 0; i < 5; i++ {
		s.Register(trace.KindList, "List[int]", "short runs", 0)
	}
	events := make([]trace.Event, n)
	inst, left := trace.InstanceID(1), 1
	for i := range events {
		if left == 0 {
			inst, left = inst%5+1, 1+i%2
		}
		left--
		events[i] = trace.Event{
			Seq:      uint64(i + 1),
			Instance: inst,
			Op:       trace.Op(1 + (i/3)%4),
			Index:    i / 2 % 11,
			Size:     11,
			Thread:   trace.ThreadID(i / 5 % 3),
		}
	}
	return saveLogBytes(tb, s, events)
}

// scanLogBytes is a log of forward and backward scans — reads, writes and
// searches over a growing structure, two threads taking turns every few
// dozen events — whose runs extend one position at a time: the extension
// FoldRun takes inline.
func scanLogBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	s := trace.NewSession()
	s.Register(trace.KindArray, "Array[int]", "scans", 0)
	events := make([]trace.Event, n)
	for i := range events {
		pass, at := i/41, i%41
		idx := at
		if pass%2 == 1 {
			idx = 39 - at // a backward pass ends on NoIndex
		}
		events[i] = trace.Event{
			Seq:      uint64(i + 1),
			Instance: 1,
			Op:       []trace.Op{trace.OpRead, trace.OpWrite, trace.OpSearch}[pass%3],
			Index:    idx,
			Size:     40 + i/100,
			Thread:   trace.ThreadID(i / 60 % 2),
		}
	}
	return saveLogBytes(tb, s, events)
}

// saveLogBytes returns the v3 session log of s and events.
func saveLogBytes(tb testing.TB, s *trace.Session, events []trace.Event) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.dslog")
	var cols trace.ColumnBatch
	cols.AppendEvents(events)
	if err := trace.SaveSessionColumns(path, s, &cols); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// foldRuns drives profile.FoldRun over thread spans as the analyzer does,
// passes of at most its span bound each, and folds the end counts and
// closed runs each pass logs into uc, returning the logged closes and the
// runs it copied whole.
func foldRuns(cb *trace.ColumnBatch, spans [][2]int, ss *profile.StreamStats, ct *profile.StreamContention,
	seg *profile.StreamSegmenter, uc *usecase.Stream) ([]profile.RunClose, []profile.Run) {
	var sp profile.Span
	var closes []profile.RunClose
	var runs []profile.Run
	for _, s := range spans {
		for k := s[0]; k < s[1]; {
			k = profile.FoldRun(cb, k, s[1], ss, ct, seg, 2, &sp)
			uc.Ends(&sp.Ends)
			uc.Runs(sp.Closes)
			closes = append(closes, sp.Closes...)
			runs = append(runs, sp.Runs...)
		}
	}
	return closes, runs
}

// FuzzColumnarFoldDifferential is the end-to-end obligation of the columnar
// engine: for any decodable stream, folding the column batches through
// profile.FoldRun's one pass per thread run — and through the value
// adapters (FeedBatch/FeedRuns) — must leave every streaming reducer in
// exactly the state that inflating to []Event and folding per event leaves
// it in. FoldRun is driven over the thread-run sub-spans of the instance
// runs, as the analyzer's feedBatch drives it. The report-level
// differential suite checks this for the 39 corpus workloads; the fuzzer
// checks it for adversarial column shapes, and that a shard batch folded
// grouped by instance reports what the ungrouped fold reports.
func FuzzColumnarFoldDifferential(f *testing.F) {
	f.Add(foldSeedLogBytes(f, 1, 600))
	f.Add(foldSeedLogBytes(f, 200, 2400))
	f.Add(oneEventRunsLogBytes(f, 900))
	f.Add(shortInstanceRunsLogBytes(f, 1200))
	f.Add(scanLogBytes(f, 1200))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var cb trace.ColumnBatch
		for {
			_, err := sr.ReadColumns(&cb)
			if err == nil {
				continue
			}
			if errors.Is(err, trace.ErrChecksum) {
				continue // frame consumed, nothing appended; keep reading
			}
			if err != io.EOF && !errors.Is(err, trace.ErrBadStream) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// Unknown decode failure: surface it rather than masking.
				t.Fatalf("ReadColumns failed structurally: %v", err)
			}
			break
		}
		n := cb.Len()
		if n == 0 {
			return
		}
		events := cb.Events(nil)
		instSpans, threadSpans := foldSpans(&cb, n)

		// The per-event oracles.
		var ssEv profile.StreamStats
		var ctEv profile.StreamContention
		segEv := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		ucEv := usecase.NewStream(usecase.Default())
		var runsEv []profile.Run
		for _, e := range events {
			ssEv.Fold(e)
			ctEv.Fold(e)
			ucEv.Event(e)
			if r, ok := segEv.Feed(e); ok {
				runsEv = append(runsEv, r)
				ucEv.Run(r.Op, r.Len())
			}
		}
		var finalEv []profile.Run
		if r, ok := segEv.Finish(); ok {
			finalEv = append(finalEv, r)
		}
		// A one-event run is held unbuilt until it closes; built then, it
		// must be the run Finish builds from that event alone.
		for _, r := range runsEv {
			if r.Len() != 1 {
				continue
			}
			alone := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
			alone.Feed(events[r.Start])
			want, _ := alone.Finish()
			want.Start, want.End = r.Start, r.End
			if r != want {
				t.Fatalf("one-event run built as %+v, want %+v", r, want)
			}
		}

		// profile.FoldRun: stats, contention, segmentation and the
		// use-case end counts and run stream, in one pass per thread run.
		var ssRun profile.StreamStats
		var ctRun profile.StreamContention
		segRun := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		ucRun := usecase.NewStream(usecase.Default())
		closes, built := foldRuns(&cb, threadSpans, &ssRun, &ctRun, segRun, ucRun)
		if !reflect.DeepEqual(ssRun.Snapshot(), ssEv.Snapshot()) || ssRun.OutOfOrder() != ssEv.OutOfOrder() {
			t.Fatalf("StreamStats diverged:\n pass:  %+v\n event: %+v", ssRun.Snapshot(), ssEv.Snapshot())
		}
		if !reflect.DeepEqual(ctRun, ctEv) || !reflect.DeepEqual(ctRun.Snapshot(), ctEv.Snapshot()) {
			t.Fatalf("StreamContention diverged:\n pass:  %+v\n event: %+v", ctRun.Snapshot(), ctEv.Snapshot())
		}
		// Its contention-only form, over the whole batch and over the
		// instance runs.
		var ctCol, ctSpan profile.StreamContention
		ctCol.FoldBatch(&cb, 0, n)
		for _, sp := range instSpans {
			ctSpan.FoldBatch(&cb, sp[0], sp[1])
		}
		if !reflect.DeepEqual(ctCol, ctEv) || !reflect.DeepEqual(ctSpan, ctEv) {
			t.Fatalf("StreamContention.FoldBatch diverged:\n batch: %+v\n spans: %+v\n event: %+v", ctCol.Snapshot(), ctSpan.Snapshot(), ctEv.Snapshot())
		}
		var wantCloses []profile.RunClose
		var wantBuilt []profile.Run
		for _, r := range runsEv {
			wantCloses = append(wantCloses, profile.RunClose{Op: r.Op, Len: r.Len()})
			if r.Len() >= 2 {
				wantBuilt = append(wantBuilt, r)
			}
		}
		if !reflect.DeepEqual(closes, wantCloses) || !reflect.DeepEqual(built, wantBuilt) {
			t.Fatalf("FoldRun's closed runs diverged:\n pass:  %+v %+v\n event: %+v", closes, built, runsEv)
		}
		if r, ok := segRun.Finish(); ok != (len(finalEv) == 1) || ok && r != finalEv[0] {
			t.Fatalf("FoldRun's open run diverged: %+v, %v; event: %+v", r, ok, finalEv)
		}
		if !reflect.DeepEqual(ucRun, ucEv) {
			t.Fatalf("usecase.Stream state diverged after %d events", n)
		}

		// Segment, the segmenter's pass alone, logs the same closes.
		segAlone := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var sp profile.Span
		var closesAlone []profile.RunClose
		for k := 0; k < n; {
			k = segAlone.Segment(&cb, k, n, 2, &sp)
			closesAlone = append(closesAlone, sp.Closes...)
		}
		if !reflect.DeepEqual(closesAlone, wantCloses) {
			t.Fatalf("Segment's closes diverged:\n pass:  %+v\n event: %+v", closesAlone, wantCloses)
		}

		// The value adapters return every closed run built in full, one-event
		// runs included, whatever mix of forms fed the segmenter.
		allEv := append(append([]profile.Run(nil), runsEv...), finalEv...)
		segCol := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var runsCol []profile.Run
		segCol.FeedBatch(&cb, 0, n, func(r profile.Run) { runsCol = append(runsCol, r) })
		if r, ok := segCol.Finish(); ok {
			runsCol = append(runsCol, r)
		}
		if !reflect.DeepEqual(runsCol, allEv) {
			t.Fatalf("StreamSegmenter diverged:\n batch: %+v\n event: %+v", runsCol, allEv)
		}
		segMix := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var runsMix []profile.Run
		segMix.FeedRuns(&cb, 0, n/2, func(r *profile.Run) { runsMix = append(runsMix, *r) })
		for _, e := range events[n/2:] {
			if r, ok := segMix.Feed(e); ok {
				runsMix = append(runsMix, r)
			}
		}
		if r, ok := segMix.Finish(); ok {
			runsMix = append(runsMix, r)
		}
		if !reflect.DeepEqual(runsMix, allEv) {
			t.Fatalf("StreamSegmenter mixed forms diverged:\n mixed: %+v\n event: %+v", runsMix, allEv)
		}
		segSpan := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var runsSpan []profile.Run
		for _, sp := range threadSpans {
			segSpan.FeedRuns(&cb, sp[0], sp[1], func(r *profile.Run) { runsSpan = append(runsSpan, *r) })
		}
		if r, ok := segSpan.Finish(); ok {
			runsSpan = append(runsSpan, r)
		}
		if !reflect.DeepEqual(runsSpan, allEv) {
			t.Fatalf("StreamSegmenter thread-run spans diverged:\n spans: %+v\n event: %+v", runsSpan, allEv)
		}

		// pattern.StreamDetector: closed classifications and final summary,
		// through the value adapters and through FoldRun.
		detCol := pattern.NewStreamDetector(pattern.DefaultConfig(), true)
		detEv := pattern.NewStreamDetector(pattern.DefaultConfig(), true)
		var closedCol, closedEv []pattern.Closed
		detCol.FeedBatch(&cb, 0, n, func(c pattern.Closed) { closedCol = append(closedCol, c) })
		for _, e := range events {
			if c, ok := detEv.Feed(e); ok {
				closedEv = append(closedEv, c)
			}
		}
		if c, ok := detCol.Finish(); ok {
			closedCol = append(closedCol, c)
		}
		if c, ok := detEv.Finish(); ok {
			closedEv = append(closedEv, c)
		}
		if !reflect.DeepEqual(closedCol, closedEv) {
			t.Fatalf("StreamDetector closed runs diverged:\n batch: %+v\n event: %+v", closedCol, closedEv)
		}
		if !reflect.DeepEqual(detCol.Summary(), detEv.Summary()) {
			t.Fatalf("StreamDetector summaries diverged:\n batch: %+v\n event: %+v", detCol.Summary(), detEv.Summary())
		}
		detSpan := pattern.NewStreamDetector(pattern.DefaultConfig(), true)
		var closedSpan []pattern.Closed
		for _, sp := range threadSpans {
			detSpan.FeedBatch(&cb, sp[0], sp[1], func(c pattern.Closed) { closedSpan = append(closedSpan, c) })
		}
		if c, ok := detSpan.Finish(); ok {
			closedSpan = append(closedSpan, c)
		}
		if !reflect.DeepEqual(closedSpan, closedEv) || !reflect.DeepEqual(detSpan.Summary(), detEv.Summary()) {
			t.Fatalf("StreamDetector thread-run spans diverged:\n spans: %+v\n event: %+v", closedSpan, closedEv)
		}
		detRun := pattern.NewStreamDetector(pattern.DefaultConfig(), true)
		var ssDet profile.StreamStats
		var ctDet profile.StreamContention
		var pats []pattern.Pattern
		for _, s := range threadSpans {
			for k := s[0]; k < s[1]; {
				k, pats = detRun.FoldRun(&cb, k, s[1], &ssDet, &ctDet, &sp, pats)
			}
		}
		detRun.Finish()
		if !reflect.DeepEqual(detRun.Summary(), detEv.Summary()) {
			t.Fatalf("StreamDetector FoldRun summary diverged:\n pass:  %+v\n event: %+v", detRun.Summary(), detEv.Summary())
		}

		checkGroupedFold(t, &cb)
	})
}

// checkGroupedFold folds the batch into two 2-shard analyzers: through
// FeedShard, one sub-batch per shard as a collector's drains deliver it —
// grouped by instance when its instance runs are short — and through
// FeedColumns, whose fold workers never group. The reports, rendered, and
// the streaming figures must be identical.
func checkGroupedFold(t *testing.T, cb *trace.ColumnBatch) {
	t.Helper()
	const shards = 2
	grouped := core.New().NewStreamAnalyzer(shards)
	var parts [shards]trace.ColumnBatch
	for i := 0; i < cb.Len(); i++ {
		parts[int(cb.Instance[i])%shards].AppendRange(cb, i, i+1)
	}
	for s := range parts {
		if parts[s].Len() > 0 {
			grouped.FeedShard(s, &parts[s])
		}
	}
	plain := core.New().NewStreamAnalyzer(shards)
	plain.FeedColumns(cb)
	var got, want bytes.Buffer
	gr, pr := grouped.Close(), plain.Close()
	if err := gr.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := pr.Write(&want); err != nil {
		t.Fatal(err)
	}
	gs, ps := *gr.Stats.Streaming, *pr.Stats.Streaming
	if !bytes.Equal(got.Bytes(), want.Bytes()) || gs != ps {
		t.Fatalf("grouped fold diverged:\n--- grouped %+v\n%s\n--- ungrouped %+v\n%s", gs, got.Bytes(), ps, want.Bytes())
	}
}
