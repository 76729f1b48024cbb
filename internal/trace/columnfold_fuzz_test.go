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
	path := filepath.Join(tb.TempDir(), "foldseed.dslog")
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

// FuzzColumnarFoldDifferential is the end-to-end obligation of the columnar
// engine: for any decodable stream, folding the column batches directly
// (FoldBatch/FeedBatch/FeedRuns) must leave every streaming reducer in exactly the
// state that inflating to []Event and folding per event leaves it in — for
// the whole batch in one call and for the instance-run and thread-run
// sub-spans feedBatch passes, one call each. The report-level differential
// suite checks this for the 39 corpus workloads; the fuzzer checks it for
// adversarial column shapes.
func FuzzColumnarFoldDifferential(f *testing.F) {
	f.Add(foldSeedLogBytes(f, 1, 600))
	f.Add(foldSeedLogBytes(f, 200, 2400))
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

		// profile.StreamStats: column fold vs per-event fold.
		var ssCol, ssSpan, ssEv profile.StreamStats
		ssCol.FoldBatch(&cb, 0, n)
		for _, sp := range instSpans {
			ssSpan.FoldBatch(&cb, sp[0], sp[1])
		}
		for _, e := range events {
			ssEv.Fold(e)
		}
		if !reflect.DeepEqual(ssCol.Snapshot(), ssEv.Snapshot()) {
			t.Fatalf("StreamStats diverged:\n batch: %+v\n event: %+v", ssCol.Snapshot(), ssEv.Snapshot())
		}
		if !reflect.DeepEqual(ssSpan.Snapshot(), ssEv.Snapshot()) {
			t.Fatalf("StreamStats instance-run spans diverged:\n spans: %+v\n event: %+v", ssSpan.Snapshot(), ssEv.Snapshot())
		}

		// profile.StreamContention: the same three folds, compared on the
		// full reducer state and on the summary.
		var ctCol, ctSpan, ctEv profile.StreamContention
		ctCol.FoldBatch(&cb, 0, n)
		for _, sp := range instSpans {
			ctSpan.FoldBatch(&cb, sp[0], sp[1])
		}
		for _, e := range events {
			ctEv.Fold(e)
		}
		if !reflect.DeepEqual(ctCol, ctEv) || !reflect.DeepEqual(ctCol.Snapshot(), ctEv.Snapshot()) {
			t.Fatalf("StreamContention diverged:\n batch: %+v\n event: %+v", ctCol.Snapshot(), ctEv.Snapshot())
		}
		if !reflect.DeepEqual(ctSpan, ctEv) {
			t.Fatalf("StreamContention instance-run spans diverged:\n spans: %+v\n event: %+v", ctSpan.Snapshot(), ctEv.Snapshot())
		}

		// profile.StreamSegmenter: closed runs must match in order and value.
		segCol := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		segEv := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var runsCol, runsEv []profile.Run
		segCol.FeedBatch(&cb, 0, n, func(r profile.Run) { runsCol = append(runsCol, r) })
		for _, e := range events {
			if r, ok := segEv.Feed(e); ok {
				runsEv = append(runsEv, r)
			}
		}
		if r, ok := segCol.Finish(); ok {
			runsCol = append(runsCol, r)
		}
		if r, ok := segEv.Finish(); ok {
			runsEv = append(runsEv, r)
		}
		if !reflect.DeepEqual(runsCol, runsEv) {
			t.Fatalf("StreamSegmenter diverged:\n batch: %+v\n event: %+v", runsCol, runsEv)
		}
		// Both forms share one state: a columnar first half continued per
		// event must segment exactly like either form alone.
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
		if !reflect.DeepEqual(runsMix, runsEv) {
			t.Fatalf("StreamSegmenter mixed forms diverged:\n mixed: %+v\n event: %+v", runsMix, runsEv)
		}
		// Thread-run sub-spans, one FeedRuns call each.
		segSpan := profile.NewStreamSegmenter(profile.DefaultSegmentOptions())
		var runsSpan []profile.Run
		for _, sp := range threadSpans {
			segSpan.FeedRuns(&cb, sp[0], sp[1], func(r *profile.Run) { runsSpan = append(runsSpan, *r) })
		}
		if r, ok := segSpan.Finish(); ok {
			runsSpan = append(runsSpan, r)
		}
		if !reflect.DeepEqual(runsSpan, runsEv) {
			t.Fatalf("StreamSegmenter thread-run spans diverged:\n spans: %+v\n event: %+v", runsSpan, runsEv)
		}

		// pattern.StreamDetector: closed classifications and final summary.
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

		// usecase.Stream: full reducer state, unexported counters included.
		ucCol := usecase.NewStream(usecase.Default())
		ucSpan := usecase.NewStream(usecase.Default())
		ucEv := usecase.NewStream(usecase.Default())
		ucCol.FoldBatch(&cb, 0, n)
		for _, sp := range instSpans {
			ucSpan.FoldBatch(&cb, sp[0], sp[1])
		}
		for _, e := range events {
			ucEv.Event(e)
		}
		if !reflect.DeepEqual(ucCol, ucEv) {
			t.Fatalf("usecase.Stream state diverged after %d events", n)
		}
		if !reflect.DeepEqual(ucSpan, ucEv) {
			t.Fatalf("usecase.Stream instance-run spans diverged after %d events", n)
		}
	})
}
