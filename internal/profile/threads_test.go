package profile

import (
	"testing"

	"dsspy/internal/trace"
)

func TestSharedAccess(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	// Thread 1 writes, threads 2 and 3 read.
	s.EmitAs(id, trace.OpInsert, 0, 1, 1)
	s.EmitAs(id, trace.OpRead, 0, 1, 2)
	s.EmitAs(id, trace.OpRead, 0, 1, 3)
	p := fold(s, rec.Events())
	sa := SharedAccessOf(p)
	if !sa.Shared() || !sa.Contended() {
		t.Errorf("shared access = %+v", sa)
	}
	if sa.Threads != 3 || sa.WritingThreads != 1 || sa.ReadingThreads != 2 {
		t.Errorf("shared access = %+v", sa)
	}
}

func TestSharedAccessReadOnly(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	s.EmitAs(id, trace.OpRead, 0, 1, 1)
	s.EmitAs(id, trace.OpRead, 0, 1, 2)
	sa := SharedAccessOf(fold(s, rec.Events()))
	if !sa.Shared() || sa.Contended() {
		t.Errorf("read-only sharing = %+v", sa)
	}
}

func TestSharedAccessSingle(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	s.Emit(id, trace.OpInsert, 0, 1)
	sa := SharedAccessOf(fold(s, rec.Events()))
	if sa.Shared() || sa.Contended() {
		t.Errorf("single-thread = %+v", sa)
	}
}
