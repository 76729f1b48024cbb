package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// randomRuns partitions the seq space 1..n into k individually sorted runs,
// the shape the sharded collector's merge sees: each shard holds a sorted
// subsequence of the global stream.
func randomRuns(rng *rand.Rand, n, k int) [][]Event {
	runs := make([][]Event, k)
	for seq := 1; seq <= n; seq++ {
		r := rng.Intn(k)
		runs[r] = append(runs[r], Event{
			Seq:      uint64(seq),
			Instance: InstanceID(seq%16 + 1),
			Op:       Op(1 + seq%4),
			Index:    seq % 101,
			Size:     seq,
		})
	}
	return runs
}

// randomColumnRuns pivots randomRuns' event partition into column batches:
// the shape the columnar merge sees at Close.
func randomColumnRuns(rng *rand.Rand, n, k int) []*ColumnBatch {
	runs := randomRuns(rng, n, k)
	out := make([]*ColumnBatch, len(runs))
	for i, r := range runs {
		out[i] = &ColumnBatch{}
		out[i].AppendEvents(r)
	}
	return out
}

func TestColumnBatchRoundTrip(t *testing.T) {
	events := fuzzSeedEvents()
	var b ColumnBatch
	for _, e := range events[:50] {
		b.Append(e)
	}
	b.AppendEvents(events[50:])
	if b.Len() != len(events) {
		t.Fatalf("Len %d, want %d", b.Len(), len(events))
	}
	for i, e := range events {
		if got := b.At(i); got != e {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, e)
		}
	}
	back := b.Events(nil)
	if len(back) != len(events) {
		t.Fatalf("Events returned %d, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d changed on inflate: %+v -> %+v", i, events[i], back[i])
		}
	}

	// AppendRange copies a window column for column.
	var c ColumnBatch
	c.AppendRange(&b, 10, 40)
	if c.Len() != 30 {
		t.Fatalf("AppendRange copied %d, want 30", c.Len())
	}
	for i := 0; i < 30; i++ {
		if c.At(i) != events[10+i] {
			t.Fatalf("range event %d mismatch", i)
		}
	}

	// Slice views alias the parent columns without copying.
	v := b.Slice(5, 15)
	if v.Len() != 10 || v.At(0) != events[5] {
		t.Fatalf("Slice view wrong: len %d first %+v", v.Len(), v.At(0))
	}
	v.Seq[0] = 424242
	if b.Seq[5] != 424242 {
		t.Fatal("Slice does not alias the parent columns")
	}
	b.Seq[5] = events[5].Seq

	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Reset left %d events", b.Len())
	}
}

func TestColumnBatchRuns(t *testing.T) {
	var b ColumnBatch
	b.AppendEvents([]Event{
		{Seq: 1, Instance: 1, Thread: 1},
		{Seq: 2, Instance: 1, Thread: 1},
		{Seq: 3, Instance: 1, Thread: 2},
		{Seq: 4, Instance: 2, Thread: 2},
		{Seq: 5, Instance: 2, Thread: 2},
	})
	if got := b.InstanceRun(0, b.Len()); got != 3 {
		t.Fatalf("InstanceRun(0) = %d, want 3", got)
	}
	if got := b.InstanceRun(3, b.Len()); got != 5 {
		t.Fatalf("InstanceRun(3) = %d, want 5", got)
	}
	if got := b.InstanceRun(0, 2); got != 2 {
		t.Fatalf("InstanceRun limit ignored: got %d, want 2", got)
	}
	if got := b.ThreadRun(0, b.Len()); got != 2 {
		t.Fatalf("ThreadRun(0) = %d, want 2", got)
	}
	if got := b.ThreadRun(2, b.Len()); got != 5 {
		t.Fatalf("ThreadRun(2) = %d, want 5", got)
	}
}

func TestColumnBatchSortBySeq(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events := fuzzSeedEvents()
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	var b ColumnBatch
	b.AppendEvents(events)
	if b.IsSortedBySeq() {
		t.Fatal("shuffled batch reported sorted")
	}
	b.SortBySeq()
	if !b.IsSortedBySeq() {
		t.Fatal("SortBySeq left the batch unsorted")
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	for i, e := range events {
		if b.At(i) != e {
			t.Fatalf("event %d after sort: %+v, want %+v", i, b.At(i), e)
		}
	}
}

// TestMergeColumnRunsMatchesMergeRuns: the batch-run merge must produce the
// same global order as a sort of its input, across the edge shapes the
// sharded collector can hand it — empty shards, single-event batches,
// adjacent batches with touching Seq ranges, and everything in one shard.
func TestMergeColumnRunsMatchesMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	touching := []*ColumnBatch{{}, {}}
	touching[0].AppendEvents([]Event{{Seq: 1, Instance: 1}, {Seq: 2, Instance: 1}, {Seq: 3, Instance: 1}})
	touching[1].AppendEvents([]Event{{Seq: 3, Instance: 2}, {Seq: 4, Instance: 2}})
	cases := []struct {
		name string
		runs []*ColumnBatch
	}{
		{"empty", nil},
		{"all-empty-shards", []*ColumnBatch{{}, {}, {}}},
		{"one-run", randomColumnRuns(rng, 100, 1)},
		{"all-in-one-shard", func() []*ColumnBatch {
			runs := randomColumnRuns(rng, 500, 4)
			// Rebuild with everything in shard 2, others empty.
			all := &ColumnBatch{}
			for _, r := range runs {
				all.AppendRange(r, 0, r.Len())
			}
			all.SortBySeq()
			return []*ColumnBatch{{}, {}, all, {}}
		}()},
		{"two-even", randomColumnRuns(rng, 1000, 2)},
		{"sixteen", randomColumnRuns(rng, 5000, 16)},
		{"single-event-batches", func() []*ColumnBatch {
			var runs []*ColumnBatch
			for i := 20; i > 0; i-- {
				b := &ColumnBatch{}
				b.Append(Event{Seq: uint64(i), Instance: 1, Op: OpRead})
				runs = append(runs, b)
			}
			return runs
		}()},
		{"touching-adjacent", touching},
		{"duplicate-seqs", func() []*ColumnBatch {
			a, b := &ColumnBatch{}, &ColumnBatch{}
			a.AppendEvents([]Event{{Seq: 1, Instance: 1}, {Seq: 5, Instance: 1}})
			b.AppendEvents([]Event{{Seq: 1, Instance: 2}, {Seq: 5, Instance: 2}})
			return []*ColumnBatch{a, b}
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			canon := func(evs []Event) {
				sort.Slice(evs, func(i, j int) bool {
					if evs[i].Seq != evs[j].Seq {
						return evs[i].Seq < evs[j].Seq
					}
					return evs[i].Instance < evs[j].Instance
				})
			}
			var want []Event
			for _, r := range tc.runs {
				want = r.AppendTo(want, 0, r.Len())
			}
			canon(want)

			merged, splits := mergeColumnRuns(tc.runs)
			if merged.Len() != len(want) {
				t.Fatalf("merged %d events, want %d", merged.Len(), len(want))
			}
			for i := 1; i < merged.Len(); i++ {
				if merged.Seq[i] < merged.Seq[i-1] {
					t.Fatalf("order broken at %d", i)
				}
			}
			// Multiset equality: relative order among equal Seqs is
			// unspecified, so compare under a canonical tie-break.
			got := merged.Events(nil)
			canon(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			if len(tc.runs) < 2 && splits != 0 {
				t.Fatalf("%d splits reported for <2 runs", splits)
			}
		})
	}
}

// TestMergeColumnRunsSplitAccounting: disjoint runs copy whole; interleaved
// runs must report splits.
func TestMergeColumnRunsSplitAccounting(t *testing.T) {
	a, b := &ColumnBatch{}, &ColumnBatch{}
	a.AppendEvents([]Event{{Seq: 1}, {Seq: 3}, {Seq: 5}})
	b.AppendEvents([]Event{{Seq: 2}, {Seq: 4}, {Seq: 6}})
	merged, splits := mergeColumnRuns([]*ColumnBatch{a, b})
	if merged.Len() != 6 {
		t.Fatalf("merged %d events, want 6", merged.Len())
	}
	if splits == 0 {
		t.Fatal("fully interleaved runs reported zero splits")
	}

	c, d := &ColumnBatch{}, &ColumnBatch{}
	c.AppendEvents([]Event{{Seq: 1}, {Seq: 2}})
	d.AppendEvents([]Event{{Seq: 10}, {Seq: 11}})
	if _, splits := mergeColumnRuns([]*ColumnBatch{c, d}); splits != 0 {
		t.Fatalf("disjoint runs reported %d splits", splits)
	}
}

// TestMergeRunsMatchesGlobalSort: NormalizeColumnRuns, the replay and spill
// path's merge, must yield exactly the global Seq sort of its input batches
// across run-count and skew extremes.
func TestMergeRunsMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		runs [][]Event
	}{
		{"empty", nil},
		{"one-run", randomRuns(rng, 100, 1)},
		{"two-even", randomRuns(rng, 1000, 2)},
		{"sixteen", randomRuns(rng, 5000, 16)},
		{"skewed", [][]Event{
			randomRuns(rng, 3000, 1)[0],
			{{Seq: 100000, Instance: 1, Op: OpRead}},
			{{Seq: 100001, Instance: 1, Op: OpRead}},
		}},
		{"single-events", func() [][]Event {
			var runs [][]Event
			for i := 20; i > 0; i-- {
				runs = append(runs, []Event{{Seq: uint64(i), Instance: 1, Op: OpRead}})
			}
			return runs
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []Event
			batches := make([]*ColumnBatch, len(tc.runs))
			for i, r := range tc.runs {
				want = append(want, r...)
				batches[i] = &ColumnBatch{}
				batches[i].AppendEvents(r)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })

			runs, _ := NormalizeColumnRuns(batches)
			got := inflateRuns(runs)
			if len(got) != len(want) {
				t.Fatalf("merged %d events, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestMergeRunsDuplicateSeqsLossless: equal Seqs across batches (possible in
// replayed spills or hand-built streams) must not lose events through
// NormalizeColumnRuns; relative order among equals is unspecified but the
// output stays non-decreasing.
func TestMergeRunsDuplicateSeqsLossless(t *testing.T) {
	a, b := &ColumnBatch{}, &ColumnBatch{}
	a.AppendEvents([]Event{{Seq: 1, Instance: 1}, {Seq: 5, Instance: 1}})
	b.AppendEvents([]Event{{Seq: 1, Instance: 2}, {Seq: 5, Instance: 2}})
	runs, _ := NormalizeColumnRuns([]*ColumnBatch{a, b})
	got := inflateRuns(runs)
	if len(got) != 4 {
		t.Fatalf("merged %d events, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestAppendToAccumulatesLinearly: inflating run after run onto one slice —
// what `dsspy -replay -chart` does — must allocate amortized-linear bytes,
// not copy the whole prefix for every run.
func TestAppendToAccumulatesLinearly(t *testing.T) {
	const runs, perRun = 1024, 64
	var b ColumnBatch
	for i := 0; i < perRun; i++ {
		b.Append(Event{Seq: uint64(i + 1), Instance: 1, Op: OpRead, Index: i, Size: perRun})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var dst []Event
	for r := 0; r < runs; r++ {
		dst = b.AppendTo(dst, 0, b.Len())
	}
	runtime.ReadMemStats(&after)
	final := uint64(len(dst)) * uint64(unsafe.Sizeof(Event{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("accumulated %d events: allocated %d bytes, %.2fx the final slice", len(dst), alloc, float64(alloc)/float64(final))
	if alloc > 4*final {
		t.Fatalf("AppendTo allocated %d bytes accumulating a %d-byte slice; want ≤4x", alloc, final)
	}
}

func TestNormalizeColumnRuns(t *testing.T) {
	// Disjoint, delivered out of order: reordered in place, no merge copy.
	a, b := &ColumnBatch{}, &ColumnBatch{}
	a.AppendEvents([]Event{{Seq: 10}, {Seq: 11}})
	b.AppendEvents([]Event{{Seq: 1}, {Seq: 2}})
	runs, splits := NormalizeColumnRuns([]*ColumnBatch{a, b, {}})
	if splits != 0 {
		t.Fatalf("disjoint runs reported %d splits", splits)
	}
	if len(runs) != 2 || runs[0] != b || runs[1] != a {
		t.Fatalf("disjoint runs not reordered in place: %v", runs)
	}

	// Overlapping: collapsed to one globally sorted batch.
	c, d := &ColumnBatch{}, &ColumnBatch{}
	c.AppendEvents([]Event{{Seq: 1}, {Seq: 5}})
	d.AppendEvents([]Event{{Seq: 2}, {Seq: 3}})
	runs, _ = NormalizeColumnRuns([]*ColumnBatch{c, d})
	if len(runs) != 1 || runs[0].Len() != 4 {
		t.Fatalf("overlapping runs not merged: %d runs", len(runs))
	}
	if !runs[0].IsSortedBySeq() {
		t.Fatal("merged run not sorted")
	}

	// Unsorted batch: sorted before the disjointness test.
	e := &ColumnBatch{}
	e.AppendEvents([]Event{{Seq: 9}, {Seq: 7}})
	runs, _ = NormalizeColumnRuns([]*ColumnBatch{e})
	if len(runs) != 1 || !runs[0].IsSortedBySeq() {
		t.Fatal("single unsorted batch not normalized")
	}

	if runs, _ := NormalizeColumnRuns(nil); len(runs) != 0 {
		t.Fatalf("nil input produced %d runs", len(runs))
	}
}

// TestWriteColumnsMatchesWriteBatch pins the wire bytes. The v3 stream that
// WriteColumns writes for the seed events, and the v2 stream of the frozen
// replica, must hash to what the retired []Event writer (WriteBatch) wrote
// for the same events.
func TestWriteColumnsMatchesWriteBatch(t *testing.T) {
	events := fuzzSeedEvents()
	want := map[int]string{
		2: "d4a107b3bbf3793385e23cca2d27552b060e3f229d0ba751b5b0cb3867624351",
		3: "5e1adea2c9e50e803b07fe546831ec0357b8c7c6ae3d4546e6487328e5159a5a",
	}
	for version, digest := range want {
		if got := fmt.Sprintf("%x", sha256.Sum256(writeStream(t, version, events))); got != digest {
			t.Fatalf("v%d stream digest %s, want %s", version, got, digest)
		}
	}
}

// TestReadColumnsMatchesReadBatch: the zero-copy column reader must see
// exactly the events written, batch by batch, on v2 and v3 streams.
func TestReadColumnsMatchesReadBatch(t *testing.T) {
	events := fuzzSeedEvents()
	for _, version := range []int{2, 3} {
		// Uneven batch sizes so frame boundaries land mid-stream.
		raw := writeStream(t, version, events[:37], events[37:])
		sr, err := NewStreamReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got ColumnBatch
		for {
			if _, err := sr.ReadColumns(&got); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatal(err)
			}
		}
		if got.Len() != len(events) {
			t.Fatalf("v%d: ReadColumns decoded %d events, want %d", version, got.Len(), len(events))
		}
		for i, e := range events {
			if got.At(i) != e {
				t.Fatalf("v%d: event %d = %+v, want %+v", version, i, got.At(i), e)
			}
		}
	}
}

// TestReadColumnsZeroAlloc is the hot-path allocation assertion from the
// acceptance bar: reading a v3 log into a reused ColumnBatch must not
// materialize an []Event anywhere — per-frame allocations are zero once the
// reader scratch and batch capacities have settled.
func TestReadColumnsZeroAlloc(t *testing.T) {
	const frames, perFrame = 16, 2048
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]Event, perFrame)
	for f := 0; f < frames; f++ {
		for i := range events {
			seq := uint64(f*perFrame + i + 1)
			events[i] = Event{Seq: seq, Instance: InstanceID(i%8 + 1), Op: Op(1 + i%4),
				Index: i % 63, Size: i, Thread: 1}
		}
		if err := writeEvents(sw, events); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	var b ColumnBatch
	rd := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		sr, err := NewStreamReader(rd)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		for {
			if _, err := sr.ReadColumns(&b); err != nil {
				break
			}
		}
		if b.Len() != frames*perFrame {
			t.Fatalf("decoded %d events, want %d", b.Len(), frames*perFrame)
		}
	})
	// Reader setup (bufio reader, StreamReader, payload scratch) is allowed;
	// anything per-frame is not: 16 frames of 2048 events would show up as
	// ≥16 allocations immediately if any per-frame slice were built.
	if allocs > 12 {
		t.Fatalf("ReadColumns allocated %.0f objects per full-log read; want ≤12 (per-frame allocation leaked in)", allocs)
	}
}

// BenchmarkReadColumns measures the zero-copy v3 read path end to end.
func BenchmarkReadColumns(b *testing.B) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	events := make([]Event, 2048)
	for f := 0; f < 16; f++ {
		for i := range events {
			events[i] = Event{Seq: uint64(f*2048 + i + 1), Instance: InstanceID(i%8 + 1),
				Op: Op(1 + i%4), Index: i % 63, Size: i, Thread: 1}
		}
		if err := writeEvents(sw, events); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	var cb ColumnBatch
	rd := bytes.NewReader(raw)
	b.SetBytes(int64(16 * 2048))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		sr, err := NewStreamReader(rd)
		if err != nil {
			b.Fatal(err)
		}
		cb.Reset()
		for {
			if _, err := sr.ReadColumns(&cb); err != nil {
				break
			}
		}
		if cb.Len() != 16*2048 {
			b.Fatalf("decoded %d", cb.Len())
		}
	}
}

func buildColumnMergeInput(n, k int) []*ColumnBatch {
	return randomColumnRuns(rand.New(rand.NewSource(42)), n, k)
}

// BenchmarkMergeColumns1M measures the columnar close-time merge of 1M events
// over 8 shard runs.
func BenchmarkMergeColumns1M(b *testing.B) {
	runs := buildColumnMergeInput(1_000_000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, _ := mergeColumnRuns(runs)
		if merged.Len() != 1_000_000 {
			b.Fatalf("merged %d", merged.Len())
		}
	}
}
