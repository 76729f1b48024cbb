package profile

import (
	"testing"
	"testing/quick"

	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

func session() (*trace.Session, *trace.MemRecorder) {
	rec := trace.NewMemRecorder()
	return trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true}), rec
}

// segmentWith segments one instance's events with opts through a
// StreamSegmenter over a column batch, flushing the open run.
func segmentWith(events []trace.Event, opts SegmentOptions) []Run {
	var b trace.ColumnBatch
	b.AppendEvents(events)
	g := NewStreamSegmenter(opts)
	var runs []Run
	g.FeedBatch(&b, 0, b.Len(), func(r Run) { runs = append(runs, r) })
	if r, ok := g.Finish(); ok {
		runs = append(runs, r)
	}
	return runs
}

// segment is segmentWith under the paper's strict adjacency reading.
func segment(events []trace.Event) []Run {
	return segmentWith(events, DefaultSegmentOptions())
}

func TestBuildGroupsByInstance(t *testing.T) {
	s, rec := session()
	a := dstruct.NewList[int](s)
	b := dstruct.NewList[int](s)
	a.Add(1)
	b.Add(2)
	a.Add(3)
	profiles := Build(s, rec.Events())
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles, want 2", len(profiles))
	}
	if profiles[0].Instance.ID != a.ID() || profiles[1].Instance.ID != b.ID() {
		t.Error("profiles not ordered by instance id")
	}
	if profiles[0].Len() != 2 || profiles[1].Len() != 1 {
		t.Errorf("event counts = %d, %d", profiles[0].Len(), profiles[1].Len())
	}
	// Chronological order within a profile.
	if profiles[0].Events[0].Seq >= profiles[0].Events[1].Seq {
		t.Error("events out of order")
	}
}

func TestBuildUnregisteredInstance(t *testing.T) {
	s, _ := session()
	events := []trace.Event{{Seq: 1, Instance: 42, Op: trace.OpRead, Index: 0, Size: 1}}
	profiles := Build(s, events)
	if len(profiles) != 1 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	if profiles[0].Instance.TypeName != "<unregistered>" {
		t.Errorf("type name = %q", profiles[0].Instance.TypeName)
	}
}

func TestBuildResortsEvents(t *testing.T) {
	s, _ := session()
	id := s.Register(trace.KindList, "List[int]", "", 0)
	events := []trace.Event{
		{Seq: 3, Instance: id, Op: trace.OpRead, Index: 2, Size: 3},
		{Seq: 1, Instance: id, Op: trace.OpRead, Index: 0, Size: 3},
		{Seq: 2, Instance: id, Op: trace.OpRead, Index: 1, Size: 3},
	}
	p := Build(s, events)[0]
	for i, e := range p.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	runs := segment(p.Events)
	if len(runs) != 1 || runs[0].Direction != DirForward {
		t.Errorf("runs = %v, want one forward run", runs)
	}
}

func TestStatsAggregation(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 0; i < 10; i++ {
		l.Get(i)
	}
	l.Contains(5)
	l.Clear()
	p := Build(s, rec.Events())[0]
	st := p.Stats()
	if st.Total != 22 {
		t.Errorf("Total = %d, want 22", st.Total)
	}
	if st.Count(trace.OpInsert) != 10 || st.Count(trace.OpRead) != 10 ||
		st.Count(trace.OpSearch) != 1 || st.Count(trace.OpClear) != 1 {
		t.Errorf("counts: insert=%d read=%d search=%d clear=%d",
			st.Count(trace.OpInsert), st.Count(trace.OpRead),
			st.Count(trace.OpSearch), st.Count(trace.OpClear))
	}
	if st.ReadLike != 11 || st.WriteLike != 11 {
		t.Errorf("readLike=%d writeLike=%d", st.ReadLike, st.WriteLike)
	}
	if st.MaxIndex != 9 {
		t.Errorf("MaxIndex = %d", st.MaxIndex)
	}
	if got := st.Fraction(st.ReadLike); got != 0.5 {
		t.Errorf("read fraction = %v", got)
	}
	// Stats are cached; a second call returns the same pointer.
	if p.Stats() != st {
		t.Error("Stats not cached")
	}
}

func TestStatsEmptyProfile(t *testing.T) {
	p := &Profile{}
	st := p.Stats()
	if st.Total != 0 || st.MaxIndex != -1 || st.Fraction(3) != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestStatsThreadCount(t *testing.T) {
	s, rec := session()
	id := s.Register(trace.KindList, "List[int]", "", 0)
	s.EmitAs(id, trace.OpRead, 0, 1, 7)
	s.EmitAs(id, trace.OpRead, 0, 1, 8)
	s.EmitAs(id, trace.OpRead, 0, 1, 7)
	p := Build(s, rec.Events())[0]
	if got := p.Stats().Threads; got != 2 {
		t.Errorf("Threads = %d, want 2", got)
	}
}

func TestRunsForwardRead(t *testing.T) {
	s, rec := session()
	l := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 0; i < 10; i++ {
		l.Get(i)
	}
	p := Build(s, rec.Events())[0]
	runs := segment(p.Events)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (insert phase, read phase): %v", len(runs), runs)
	}
	ins, rd := runs[0], runs[1]
	if ins.Op != trace.OpInsert || ins.Len() != 10 || !ins.StrictlyUp {
		t.Errorf("insert run = %+v", ins)
	}
	if rd.Op != trace.OpRead || rd.Direction != DirForward || rd.Len() != 10 {
		t.Errorf("read run = %+v", rd)
	}
	if rd.FirstIndex != 0 || rd.LastIndex != 9 || rd.MinIndex != 0 || rd.MaxIndex != 9 {
		t.Errorf("read run bounds = %+v", rd)
	}
	if got := rd.Coverage(); got != 1.0 {
		t.Errorf("coverage = %v, want 1.0", got)
	}
}

func TestRunsDirectionBreaks(t *testing.T) {
	s, rec := session()
	l := dstruct.NewListCap[int](s, 6)
	for i := 0; i < 6; i++ {
		l.Add(i)
	}
	// Forward then backward reads: two separate runs.
	for i := 0; i < 3; i++ {
		l.Get(i)
	}
	for i := 5; i >= 3; i-- {
		l.Get(i)
	}
	p := Build(s, rec.Events())[0]
	runs := segment(p.Events)
	// insert, read-fwd(0,1,2), read at 5 breaks (jump of 3) -> the forward
	// run ends; 5,4,3 is a backward run.
	if len(runs) != 3 {
		t.Fatalf("got %d runs: %v", len(runs), runs)
	}
	if runs[1].Direction != DirForward || runs[1].Len() != 3 {
		t.Errorf("run 1 = %+v", runs[1])
	}
	if runs[2].Direction != DirBackward || runs[2].Len() != 3 {
		t.Errorf("run 2 = %+v", runs[2])
	}
}

func TestRunsGapTolerance(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[int](s, 10)
	// Strided reads: 0,2,4,6,8.
	for i := 0; i < 10; i += 2 {
		a.Get(i)
	}
	p := Build(s, rec.Events())[0]
	strict := segment(p.Events)
	if len(strict) != 5 {
		t.Errorf("strict segmentation produced %d runs, want 5 singletons", len(strict))
	}
	loose := segmentWith(p.Events, SegmentOptions{MaxStep: 2})
	if len(loose) != 1 || loose[0].Direction != DirForward || loose[0].Len() != 5 {
		t.Errorf("gap-tolerant runs = %v", loose)
	}
}

func TestRunsStationary(t *testing.T) {
	s, rec := session()
	a := dstruct.NewArray[int](s, 4)
	for i := 0; i < 5; i++ {
		a.Get(2)
	}
	p := Build(s, rec.Events())[0]
	strict := segment(p.Events)
	if len(strict) != 5 {
		t.Errorf("strict: %d runs, want 5 (repeats break runs)", len(strict))
	}
	loose := segmentWith(p.Events, SegmentOptions{MaxStep: 1, AllowRepeat: true})
	if len(loose) != 1 || loose[0].Direction != DirStationary {
		t.Errorf("AllowRepeat runs = %v", loose)
	}
}

func TestRunsWholeStructureOpsMerge(t *testing.T) {
	s, rec := session()
	l := dstruct.NewList[int](s)
	l.Add(1)
	l.Sort(func(a, b int) bool { return a < b })
	l.Sort(func(a, b int) bool { return a > b })
	l.Clear()
	p := Build(s, rec.Events())[0]
	runs := segment(p.Events)
	// insert, sort+sort merged, clear
	if len(runs) != 3 {
		t.Fatalf("got %d runs: %v", len(runs), runs)
	}
	if runs[1].Op != trace.OpSort || runs[1].Len() != 2 {
		t.Errorf("sort run = %+v", runs[1])
	}
	if runs[1].Coverage() != 0 {
		t.Errorf("whole-structure coverage = %v, want 0", runs[1].Coverage())
	}
}

func TestRunsFrontBackFlags(t *testing.T) {
	s, rec := session()
	q := dstruct.NewQueue[int](s)
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 5; i++ {
		q.Dequeue()
	}
	p := Build(s, rec.Events())[0]
	runs := segment(p.Events)
	if len(runs) != 2 {
		t.Fatalf("got %d runs: %v", len(runs), runs)
	}
	if !runs[0].AllBack || runs[0].AllFront {
		t.Errorf("enqueue run flags = %+v", runs[0])
	}
	if !runs[1].AllFront {
		t.Errorf("dequeue run flags = %+v", runs[1])
	}
}

func TestStackRunsAreBack(t *testing.T) {
	s, rec := session()
	st := dstruct.NewStack[int](s)
	for i := 0; i < 4; i++ {
		st.Push(i)
	}
	for i := 0; i < 4; i++ {
		st.Pop()
	}
	p := Build(s, rec.Events())[0]
	runs := segment(p.Events)
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	if !runs[0].AllBack || !runs[0].StrictlyUp {
		t.Errorf("push run = %+v", runs[0])
	}
	if !runs[1].AllBack || !runs[1].StrictlyDown {
		t.Errorf("pop run = %+v", runs[1])
	}
}

// Property: runs partition the profile — every event belongs to exactly one
// run, runs are contiguous and ordered.
func TestRunsPartitionProperty(t *testing.T) {
	f := func(ops []uint8, idxs []uint8) bool {
		s, rec := session()
		id := s.Register(trace.KindList, "List[int]", "", 0)
		n := len(ops)
		if len(idxs) < n {
			n = len(idxs)
		}
		for i := 0; i < n; i++ {
			op := trace.Op(ops[i]%11 + 1)
			idx := int(idxs[i] % 20)
			if op == trace.OpClear || op == trace.OpSort {
				idx = trace.NoIndex
			}
			s.Emit(id, op, idx, 20)
		}
		profiles := Build(s, rec.Events())
		if n == 0 {
			return len(profiles) == 0
		}
		p := profiles[0]
		runs := segment(p.Events)
		pos := 0
		for _, r := range runs {
			if r.Start != pos || r.End < r.Start {
				return false
			}
			pos = r.End + 1
		}
		return pos == len(p.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDirectionString(t *testing.T) {
	if DirForward.String() != "Forward" || DirBackward.String() != "Backward" ||
		DirStationary.String() != "Stationary" || DirNone.String() != "None" {
		t.Error("Direction.String wrong")
	}
}

func TestProfileString(t *testing.T) {
	s, rec := session()
	l := dstruct.NewListLabeled[int](s, "x")
	l.Add(1)
	p := Build(s, rec.Events())[0]
	if p.String() == "" {
		t.Error("empty String")
	}
	r := segment(p.Events)[0]
	if r.String() == "" {
		t.Error("empty Run.String")
	}
}
