package dstruct

import (
	"strings"
	"testing"

	"dsspy/internal/trace"
)

// admitAllGate admits every access: full fidelity through the gate's credit
// protocol, the opposite end from dropAllGate.
type admitAllGate struct{}

func (admitAllGate) Admit(trace.InstanceID, trace.ThreadID) bool           { return true }
func (admitAllGate) AdmitRun(trace.InstanceID, trace.ThreadID) (bool, int) { return true, 1 << 20 }
func (admitAllGate) Observe(trace.InstanceID, uint64, uint64)              {}

// panicValue runs f and returns what it panicked with, or nil.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestOutOfRangePanicSameInEveryMode: observing a program must not change
// how it fails. An out-of-range index raises the same formatted dstruct
// panic on a plain session, at full fidelity through a gate, and when the
// gate samples every access out (the fast path that skips the slow path's
// index check for in-range accesses).
func TestOutOfRangePanicSameInEveryMode(t *testing.T) {
	modes := []struct {
		name string
		s    func() *trace.Session
	}{
		{"plain", func() *trace.Session { return trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}}) }},
		{"full", func() *trace.Session {
			return trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, Gate: admitAllGate{}})
		}},
		{"floor", droppedSession},
	}
	list := func(s *trace.Session) *List[int] {
		l := NewList[int](s)
		for i := 0; i < 4; i++ {
			l.Add(i)
		}
		return l
	}
	sortedList := func(s *trace.Session) *SortedList[int, int] {
		sl := NewSortedList[int, int](s)
		for i := 0; i < 4; i++ {
			sl.Put(i, i)
		}
		return sl
	}
	sortedSet := func(s *trace.Session) *SortedSet[int] {
		ss := NewSortedSet[int](s)
		for i := 0; i < 4; i++ {
			ss.Add(i)
		}
		return ss
	}
	arrayList := func(s *trace.Session) *ArrayList {
		al := NewArrayList(s)
		for i := 0; i < 4; i++ {
			al.Add(i)
		}
		return al
	}
	ops := []struct {
		name string
		op   func(s *trace.Session, i int)
	}{
		{"List.Get", func(s *trace.Session, i int) { list(s).Get(i) }},
		{"List.Set", func(s *trace.Session, i int) { list(s).Set(i, 9) }},
		{"List.RemoveAt", func(s *trace.Session, i int) { list(s).RemoveAt(i) }},
		{"Array.Get", func(s *trace.Session, i int) { NewArray[int](s, 4).Get(i) }},
		{"Array.Set", func(s *trace.Session, i int) { NewArray[int](s, 4).Set(i, 9) }},
		{"Array.RemoveAt", func(s *trace.Session, i int) { NewArray[int](s, 4).RemoveAt(i) }},
		{"ArrayList.Get", func(s *trace.Session, i int) { arrayList(s).Get(i) }},
		{"ArrayList.Set", func(s *trace.Session, i int) { arrayList(s).Set(i, 9) }},
		{"SortedList.At", func(s *trace.Session, i int) { sortedList(s).At(i) }},
		{"SortedSet.At", func(s *trace.Session, i int) { sortedSet(s).At(i) }},
	}
	for _, op := range ops {
		for _, i := range []int{-1, 4, 1 << 20} {
			want := panicValue(func() { op.op(modes[0].s(), i) })
			msg, ok := want.(string)
			if !ok || !strings.HasPrefix(msg, "dstruct: ") {
				t.Fatalf("%s(%d) on a plain session panicked with %v, want the formatted dstruct panic", op.name, i, want)
			}
			for _, m := range modes[1:] {
				if got := panicValue(func() { op.op(m.s(), i) }); got != want {
					t.Errorf("%s(%d) %s panicked with %v, plain with %v", op.name, i, m.name, got, want)
				}
			}
		}
		for _, m := range modes {
			if got := panicValue(func() { op.op(m.s(), 2) }); got != nil {
				t.Errorf("%s(2) %s panicked with %v on an in-range index", op.name, m.name, got)
			}
		}
	}
}
