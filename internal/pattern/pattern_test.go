package pattern

import (
	"fmt"
	"testing"
	"unsafe"

	"dsspy/internal/dstruct"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

func session() (*trace.Session, *trace.MemRecorder) {
	rec := trace.NewMemRecorder()
	return trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true}), rec
}

// summarize folds the recorded events of the session's one instance through
// a pattern-keeping StreamDetector over a column batch and returns the
// summary with the open run flushed.
func summarize(t *testing.T, rec *trace.MemRecorder, cfg Config) *Summary {
	t.Helper()
	var b trace.ColumnBatch
	b.AppendEvents(rec.Events())
	if b.Len() == 0 || b.InstanceRun(0, b.Len()) != b.Len() {
		t.Fatalf("recorded events span more than one instance")
	}
	d := NewStreamDetector(cfg, true)
	d.FeedBatch(&b, 0, b.Len(), func(Closed) {})
	d.Finish()
	return d.Summary()
}

// detect returns the patterns of the session's one instance under the
// default configuration.
func detect(t *testing.T, rec *trace.MemRecorder) []Pattern {
	t.Helper()
	return summarize(t, rec, DefaultConfig()).Patterns
}

// regular decides the regularity of the session's one instance the way the
// analyzer does: from its pattern summary and folded statistics.
func regular(t *testing.T, rec *trace.MemRecorder) bool {
	t.Helper()
	var st profile.StreamStats
	for _, e := range rec.Events() {
		st.Fold(e)
	}
	return RegularityFrom(summarize(t, rec, DefaultConfig()), st.Snapshot(), DefaultRegularityConfig())
}

func typesOf(pats []Pattern) []Type {
	out := make([]Type, len(pats))
	for i, p := range pats {
		out[i] = p.Type
	}
	return out
}

// TestPatternRecordSize: a listed pattern is the compact record — start,
// end, coverage and type — not a copy of the segmenter's 88-byte run.
func TestPatternRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Pattern{}); got > 32 {
		t.Fatalf("pattern.Pattern is %d bytes, want <= 32", got)
	}
}

// TestPatternRecordMatchesRun: the record answers Len, Coverage and String
// as the run it was built from does.
func TestPatternRecordMatchesRun(t *testing.T) {
	runs := []profile.Run{
		{Op: trace.OpRead, Start: 3, End: 12, Direction: profile.DirForward, FirstIndex: 0, LastIndex: 9, MinIndex: 0, MaxIndex: 9, MaxSeenSize: 40},
		{Op: trace.OpInsert, Start: 0, End: 0, FirstIndex: trace.NoIndex, MaxSeenSize: 5},
		{Op: trace.OpDelete, Start: 7, End: 9, FirstIndex: 0, AllFront: true},
	}
	for _, r := range runs {
		p := New(Classify(&r), &r)
		if p.Len() != r.Len() || p.Coverage() != r.Coverage() {
			t.Errorf("%v: record len %d cov %v, run len %d cov %v", r, p.Len(), p.Coverage(), r.Len(), r.Coverage())
		}
		want := fmt.Sprintf("%s[len=%d cov=%.0f%%]", p.Type, r.Len(), 100*r.Coverage())
		if p.String() != want {
			t.Errorf("String = %q, want %q", p, want)
		}
	}
}

func TestFigure2Patterns(t *testing.T) {
	// The exact §II.B snippet: List<int>(10); add 0..9; read 9..0.
	// Expected: Insert-Back then Read-Backward.
	s, rec := session()
	l := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 9; i >= 0; i-- {
		l.Get(i)
	}
	pats := detect(t, rec)
	if len(pats) != 2 {
		t.Fatalf("patterns = %v, want 2", pats)
	}
	if pats[0].Type != InsertBack || pats[0].Len() != 10 {
		t.Errorf("pattern 0 = %v, want Insert-Back len 10", pats[0])
	}
	if pats[1].Type != ReadBackward || pats[1].Len() != 10 {
		t.Errorf("pattern 1 = %v, want Read-Backward len 10", pats[1])
	}
}

func TestFigure3Patterns(t *testing.T) {
	// The §II.B/III.A scenario: repeatedly fill a list with Add, read it
	// front to end, then clear. Expect alternating Insert-Back and
	// Read-Forward patterns, one pair per cycle.
	s, rec := session()
	l := dstruct.NewList[int](s)
	const cycles, n = 5, 50
	for c := 0; c < cycles; c++ {
		for i := 0; i < n; i++ {
			l.Add(i)
		}
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
		l.Clear()
	}
	sum := summarize(t, rec, DefaultConfig())
	if got := sum.ByType[InsertBack]; got != cycles {
		t.Errorf("Insert-Back count = %d, want %d", got, cycles)
	}
	if got := sum.ByType[ReadForward]; got != cycles {
		t.Errorf("Read-Forward count = %d, want %d", got, cycles)
	}
	if sum.SequentialReads != cycles {
		t.Errorf("SequentialReads = %d, want %d", sum.SequentialReads, cycles)
	}
	if sum.InsertEvents() != cycles*n {
		t.Errorf("InsertEvents = %d, want %d", sum.InsertEvents(), cycles*n)
	}
	if sum.DirectionalReadEvents() != cycles*n {
		t.Errorf("DirectionalReadEvents = %d, want %d", sum.DirectionalReadEvents(), cycles*n)
	}
}

func TestWritePatterns(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[float64](s, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, float64(i))
	}
	for i := 7; i >= 0; i-- {
		a.Set(i, 0)
	}
	pats := detect(t, rec)
	if len(pats) != 2 || pats[0].Type != WriteForward || pats[1].Type != WriteBackward {
		t.Fatalf("patterns = %v, want Write-Forward, Write-Backward", typesOf(pats))
	}
}

func TestInsertFrontPattern(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 6; i++ {
		l.Insert(0, i)
	}
	pats := detect(t, rec)
	if len(pats) != 1 || pats[0].Type != InsertFront {
		t.Fatalf("patterns = %v, want Insert-Front", typesOf(pats))
	}
}

func TestDeletePatterns(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 12; i++ {
		l.Add(i)
	}
	// Delete from the front 6 times, then from the back 6 times.
	for i := 0; i < 6; i++ {
		l.RemoveAt(0)
	}
	for i := 0; i < 6; i++ {
		l.RemoveAt(l.Len() - 1)
	}
	pats := detect(t, rec)
	if len(pats) != 3 {
		t.Fatalf("patterns = %v", pats)
	}
	if pats[1].Type != DeleteFront || pats[2].Type != DeleteBack {
		t.Errorf("delete patterns = %v, %v; want Delete-Front, Delete-Back", pats[1], pats[2])
	}
}

func TestStackProfileClassification(t *testing.T) {
	s, rec := session()
	st := dstruct.NewStack[int](s)
	for i := 0; i < 5; i++ {
		st.Push(i)
	}
	for i := 0; i < 5; i++ {
		st.Pop()
	}
	pats := detect(t, rec)
	if len(pats) != 2 || pats[0].Type != InsertBack || pats[1].Type != DeleteBack {
		t.Fatalf("stack patterns = %v, want Insert-Back, Delete-Back", typesOf(pats))
	}
}

func TestQueueProfileClassification(t *testing.T) {
	s, rec := session()
	q := dstruct.NewQueue[int](s)
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 5; i++ {
		q.Dequeue()
	}
	pats := detect(t, rec)
	if len(pats) != 2 || pats[0].Type != InsertBack || pats[1].Type != DeleteFront {
		t.Fatalf("queue patterns = %v, want Insert-Back, Delete-Front", typesOf(pats))
	}
}

func TestMinLenFiltersNoise(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	l.Add(1) // single insert: below MinLen
	l.Get(0) // single read
	pats := detect(t, rec)
	if len(pats) != 0 {
		t.Errorf("patterns = %v, want none for single events", pats)
	}
	pats = summarize(t, rec, Config{MinLen: 1, Segment: profile.DefaultSegmentOptions()}).Patterns
	// MinLen is clamped to 2.
	if len(pats) != 0 {
		t.Errorf("MinLen clamp failed: %v", pats)
	}
}

func TestRandomAccessNoPatterns(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[int](s, 100)
	// Pseudo-random walk with jumps > 1: no directional runs.
	idx := 0
	for i := 0; i < 50; i++ {
		idx = (idx + 37) % 100
		a.Get(idx)
	}
	pats := detect(t, rec)
	for _, p := range pats {
		t.Errorf("unexpected pattern %v in random profile", p)
	}
}

func TestHasRegularity(t *testing.T) {
	// Regular: repeated read-forward cycles.
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 20; i++ {
		l.Add(i)
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
	}
	if !regular(t, rec) {
		t.Error("cyclic profile not regular")
	}

	// Irregular: a handful of scattered accesses.
	s2, rec2 := session()
	a := dstruct.NewArray[int](s2, 50)
	for _, i := range []int{3, 17, 4, 40, 11} {
		a.Get(i)
	}
	if regular(t, rec2) {
		t.Error("scattered profile reported regular")
	}
}

func TestClassifyNonPositionalRuns(t *testing.T) {
	r := profile.Run{Op: trace.OpSort, Direction: profile.DirNone}
	if Classify(&r) != None {
		t.Error("Sort run classified as a pattern")
	}
	r = profile.Run{Op: trace.OpRead, Direction: profile.DirStationary}
	if Classify(&r) != None {
		t.Error("stationary read classified as directional pattern")
	}
}

func TestTypeStringAndTypes(t *testing.T) {
	if len(Types()) != 8 {
		t.Fatalf("Types() = %d entries", len(Types()))
	}
	want := map[Type]string{
		ReadForward:   "Read-Forward",
		WriteForward:  "Write-Forward",
		ReadBackward:  "Read-Backward",
		WriteBackward: "Write-Backward",
		InsertFront:   "Insert-Front",
		InsertBack:    "Insert-Back",
		DeleteFront:   "Delete-Front",
		DeleteBack:    "Delete-Back",
	}
	for ty, name := range want {
		if ty.String() != name {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), name)
		}
	}
	if None.String() != "None" {
		t.Error("None.String")
	}
	if Type(99).String() == "" {
		t.Error("out-of-range String empty")
	}
}

func TestPatternStringAndCoverage(t *testing.T) {
	s, rec := session()
	l := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 0; i < 5; i++ {
		l.Get(i)
	}
	pats := detect(t, rec)
	if len(pats) != 2 {
		t.Fatalf("pats = %v", pats)
	}
	read := pats[1]
	if read.Coverage() != 0.5 {
		t.Errorf("coverage = %v, want 0.5 (5 of 10)", read.Coverage())
	}
	if read.String() == "" {
		t.Error("empty String")
	}
}
