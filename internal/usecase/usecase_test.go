package usecase_test

// The detectors are exercised through the StreamAnalyzer, the one engine
// every report comes from; core imports usecase, so these tests live in an
// external package, with the package under test dot-imported.

import (
	"strings"
	"testing"

	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
	. "dsspy/internal/usecase"
)

func session() (*trace.Session, *trace.MemRecorder) {
	rec := trace.NewMemRecorder()
	return trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true}), rec
}

// detectOn analyzes the session's one instance under the paper's thresholds
// and returns its use cases.
func detectOn(t *testing.T, s *trace.Session, rec *trace.MemRecorder) []UseCase {
	t.Helper()
	rep := core.New().Analyze(s, rec.Events())
	if len(rep.Instances) != 1 {
		t.Fatalf("got %d instances, want 1", len(rep.Instances))
	}
	return rep.Instances[0].UseCases
}

func kinds(ucs []UseCase) map[Kind]bool {
	m := make(map[Kind]bool)
	for _, u := range ucs {
		m[u.Kind] = true
	}
	return m
}

func TestKindMetadata(t *testing.T) {
	if len(Kinds()) != 12 {
		t.Fatalf("Kinds() = %d", len(Kinds()))
	}
	if len(ParallelKinds()) != 5 {
		t.Fatalf("ParallelKinds() = %d", len(ParallelKinds()))
	}
	if len(ContentionKinds()) != 4 {
		t.Fatalf("ContentionKinds() = %d", len(ContentionKinds()))
	}
	wantShort := map[Kind]string{
		LongInsert: "LI", ImplementQueue: "IQ", SortAfterInsert: "SAI",
		FrequentSearch: "FS", FrequentLongRead: "FLR",
		InsertDeleteFront: "IDF", StackImplementation: "SI", WriteWithoutRead: "WWR",
		ContendedMap: "CM", MPSCQueue: "MQ",
		ReadMostlyTable: "RMT", PhaseSeparatedRW: "PRW",
	}
	for k, short := range wantShort {
		if k.Short() != short {
			t.Errorf("%s.Short() = %q, want %q", k, k.Short(), short)
		}
		if k.Action() == "" {
			t.Errorf("%s has no recommended action", k)
		}
	}
	for _, k := range ParallelKinds() {
		if !k.Parallel() {
			t.Errorf("%s.Parallel() = false", k)
		}
	}
	for _, k := range ContentionKinds() {
		if !k.Parallel() {
			t.Errorf("%s.Parallel() = false", k)
		}
	}
	for _, k := range []Kind{InsertDeleteFront, StackImplementation, WriteWithoutRead} {
		if k.Parallel() {
			t.Errorf("%s.Parallel() = true", k)
		}
	}
	if Kind(99).String() == "" || Kind(99).Short() != "?" || Kind(99).Action() != "" {
		t.Error("out-of-range kind metadata wrong")
	}
}

func TestLongInsertFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 500; i++ { // one long insertion phase, 100 % of profile
		l.Add(i)
	}
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[LongInsert] {
		t.Fatalf("Long-Insert did not fire; got %v", ucs)
	}
	for _, u := range ucs {
		if u.Kind == LongInsert {
			if !strings.Contains(u.Evidence, "500") {
				t.Errorf("evidence %q lacks phase length", u.Evidence)
			}
			if u.Recommendation != LongInsert.Action() {
				t.Error("recommendation mismatch")
			}
		}
	}
}

func TestLongInsertNeedsLongPhase(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	// Many short insertion phases (50 each, below the 100 threshold),
	// separated by reads.
	for c := 0; c < 10; c++ {
		for i := 0; i < 50; i++ {
			l.Add(i)
		}
		l.Get(0)
	}
	if kinds(detectOn(t, s, rec))[LongInsert] {
		t.Error("Long-Insert fired without a >=100-event phase")
	}
}

func TestLongInsertNeedsPhaseFraction(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 150; i++ {
		l.Add(i)
	}
	// Dilute: insertions now ~17 % of the profile.
	for c := 0; c < 5; c++ {
		for i := 0; i < l.Len(); i += 2 {
			l.Get(i)
		}
	}
	if kinds(detectOn(t, s, rec))[LongInsert] {
		t.Error("Long-Insert fired with insertion share below 30 %")
	}
}

func TestLongInsertOnArrayFill(t *testing.T) {
	// A sequential write fill of an array is an insertion phase (the
	// Mandelbrot image / GPdotNET fitness-array findings in §V).
	s, rec := session()
	a := dstruct.NewArray[float64](s, 200)
	for i := 0; i < 200; i++ {
		a.Set(i, float64(i))
	}
	if !kinds(detectOn(t, s, rec))[LongInsert] {
		t.Error("Long-Insert did not fire for a sequential array fill")
	}

	// A list written via Set (overwrites, not inserts) must NOT fire.
	s2, rec2 := session()
	l := dstruct.NewListCap[int](s2, 200)
	for i := 0; i < 200; i++ {
		l.Add(i)
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 200; i++ {
			l.Set(i, i)
		}
	}
	ks := kinds(detectOn(t, s2, rec2))
	if ks[LongInsert] {
		// The Add phase is 200 of 800 events = 25 % < 30 %: must not fire.
		t.Error("Long-Insert fired for overwrite-dominated list profile")
	}
}

func TestImplementQueueFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	// FIFO on a list: append at the back, consume at the front.
	for i := 0; i < 200; i++ {
		l.Add(i)
	}
	for l.Len() > 0 {
		l.Get(0)
		l.RemoveAt(0)
	}
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[ImplementQueue] {
		t.Fatalf("Implement-Queue did not fire; got %v", ucs)
	}
}

func TestImplementQueueMirrorOrientation(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	// Inverted FIFO: insert at the front, consume at the back.
	for i := 0; i < 100; i++ {
		l.Insert(0, i)
	}
	for l.Len() > 0 {
		l.RemoveAt(l.Len() - 1)
	}
	if !kinds(detectOn(t, s, rec))[ImplementQueue] {
		t.Error("Implement-Queue did not fire for front-insert/back-delete")
	}
}

func TestImplementQueueNotOnStackUsage(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 100; i++ {
		l.Add(i)
	}
	for l.Len() > 0 {
		l.RemoveAt(l.Len() - 1) // same end: stack, not queue
	}
	ks := kinds(detectOn(t, s, rec))
	if ks[ImplementQueue] {
		t.Error("Implement-Queue fired on common-end usage")
	}
	if !ks[StackImplementation] {
		t.Error("Stack-Implementation did not fire on common-end usage")
	}
}

func TestImplementQueueNotOnArray(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[int](s, 10)
	for i := 0; i < 50; i++ {
		a.Set(9, i)
		a.Get(0)
	}
	if kinds(detectOn(t, s, rec))[ImplementQueue] {
		t.Error("Implement-Queue fired on an array (defined for lists)")
	}
}

func TestSortAfterInsertFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 200; i++ {
		l.Add(200 - i)
	}
	l.Sort(func(a, b int) bool { return a < b })
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[SortAfterInsert] {
		t.Fatalf("Sort-After-Insert did not fire; got %v", ucs)
	}
}

func TestSortAfterInsertNeedsAdjacency(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 200; i++ {
		l.Add(i)
	}
	for i := 0; i < 150; i++ {
		l.Get(i) // reads between insertion phase and sort
	}
	l.Sort(func(a, b int) bool { return a < b })
	if kinds(detectOn(t, s, rec))[SortAfterInsert] {
		t.Error("Sort-After-Insert fired although the sort does not follow the insertion phase")
	}
}

func TestFrequentSearchFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 100; i++ {
		l.Add(i)
	}
	for i := 0; i < 1100; i++ {
		l.Contains(i % 150)
	}
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[FrequentSearch] {
		t.Fatalf("Frequent-Search did not fire; got %v", ucs)
	}
}

func TestFrequentSearchNeedsVolume(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 100; i++ {
		l.Add(i)
	}
	for i := 0; i < 900; i++ { // below the >1000 threshold
		l.Contains(i)
	}
	if kinds(detectOn(t, s, rec))[FrequentSearch] {
		t.Error("Frequent-Search fired below 1000 search operations")
	}
}

func TestFrequentLongReadFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 50; i++ {
		l.Add(i)
	}
	// 15 full sequential scans: the priority-queue-on-a-list idiom.
	for c := 0; c < 15; c++ {
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
	}
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[FrequentLongRead] {
		t.Fatalf("Frequent-Long-Read did not fire; got %v", ucs)
	}
}

func TestFrequentLongReadCountsForAll(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 30; i++ {
		l.Add(i)
	}
	sum := 0
	for c := 0; c < 40; c++ {
		l.ForEach(func(v int) { sum += v })
	}
	if !kinds(detectOn(t, s, rec))[FrequentLongRead] {
		t.Error("Frequent-Long-Read did not fire for compound ForAll traversals")
	}
}

func TestFrequentLongReadNeedsCoverage(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 100; i++ {
		l.Add(i)
	}
	// 20 short scans over 10 % of the structure: patterns, but not long.
	for c := 0; c < 20; c++ {
		for i := 0; i < 10; i++ {
			l.Get(i)
		}
	}
	if kinds(detectOn(t, s, rec))[FrequentLongRead] {
		t.Error("Frequent-Long-Read fired for low-coverage read patterns")
	}
}

func TestFrequentLongReadNeedsReadShare(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	// Writes dominate: 12 scans but 3x as many writes.
	for i := 0; i < 20; i++ {
		l.Add(i)
	}
	for c := 0; c < 12; c++ {
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
		for r := 0; r < 3; r++ {
			for i := 0; i < l.Len(); i++ {
				l.Set(i, i)
			}
		}
	}
	if kinds(detectOn(t, s, rec))[FrequentLongRead] {
		t.Error("Frequent-Long-Read fired although reads are under 50 %")
	}
}

func TestInsertDeleteFrontFires(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[int](s, 4)
	for c := 0; c < 10; c++ {
		a.InsertAt(0, c)
		a.RemoveAt(0)
	}
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[InsertDeleteFront] {
		t.Fatalf("Insert/Delete-Front did not fire; got %v", ucs)
	}
}

func TestInsertDeleteFrontOnlyArrays(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for c := 0; c < 10; c++ {
		l.Insert(0, c)
		l.RemoveAt(0)
	}
	if kinds(detectOn(t, s, rec))[InsertDeleteFront] {
		t.Error("Insert/Delete-Front fired on a list")
	}
}

func TestStackImplementationFrontVariant(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for c := 0; c < 20; c++ {
		l.Insert(0, c)
	}
	for l.Len() > 0 {
		l.RemoveAt(0)
	}
	if !kinds(detectOn(t, s, rec))[StackImplementation] {
		t.Error("Stack-Implementation did not fire for front-end stack")
	}
}

func TestStackImplementationNeedsBothOps(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 50; i++ {
		l.Add(i)
	}
	if kinds(detectOn(t, s, rec))[StackImplementation] {
		t.Error("Stack-Implementation fired without deletes")
	}
}

func TestWriteWithoutReadFires(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 50; i++ {
		l.Add(i)
	}
	for i := 0; i < l.Len(); i++ {
		l.Get(i)
	}
	// Cleanup: null out every entry at end of life, then clear.
	for i := 0; i < l.Len(); i++ {
		l.Set(i, 0)
	}
	l.Clear()
	ucs := detectOn(t, s, rec)
	if !kinds(ucs)[WriteWithoutRead] {
		t.Fatalf("Write-Without-Read did not fire; got %v", ucs)
	}
}

func TestWriteWithoutReadNotWhenReadAfter(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 50; i++ {
		l.Add(i)
	}
	for i := 0; i < l.Len(); i++ {
		l.Set(i, 0)
	}
	for i := 0; i < l.Len(); i++ {
		l.Get(i) // the writes ARE read afterwards
	}
	if kinds(detectOn(t, s, rec))[WriteWithoutRead] {
		t.Error("Write-Without-Read fired although the writes are read")
	}
}

// An instance that raised no event has no profile to judge: it gets no row
// and no finding.
func TestDetectEmptyProfile(t *testing.T) {
	s, rec := session()
	dstruct.NewList[int](s)
	rep := core.New().Analyze(s, rec.Events())
	if len(rep.Instances) != 0 || rep.UseCases() != nil {
		t.Errorf("event-free instance: rows = %d, use cases = %v", len(rep.Instances), rep.UseCases())
	}
}

func TestUseCaseString(t *testing.T) {
	u := UseCase{Kind: LongInsert, Instance: trace.Instance{TypeName: "List[int]"}, Evidence: "x"}
	if u.String() == "" {
		t.Error("empty String")
	}
}

// The Figure 3 profile must yield exactly the paper's two use cases:
// Long-Insert and Frequent-Long-Read (§III.B: "This leads to the two use
// cases Long-Insert and Frequent-Long-Read").
func TestFigure3UseCases(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	const cycles, n = 12, 150
	for c := 0; c < cycles; c++ {
		for i := 0; i < n; i++ {
			l.Add(i)
		}
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
		l.Clear()
	}
	ucs := detectOn(t, s, rec)
	ks := kinds(ucs)
	if !ks[LongInsert] || !ks[FrequentLongRead] {
		t.Fatalf("Figure 3 profile yielded %v; want Long-Insert and Frequent-Long-Read", ucs)
	}
	for _, u := range ucs {
		if u.Kind != LongInsert && u.Kind != FrequentLongRead {
			t.Errorf("unexpected extra use case %v", u)
		}
	}
}
