package profile

import (
	"testing"

	"dsspy/internal/trace"
)

// emitAs builds an interleaved two-thread profile: thread 1 scans forward,
// thread 2 scans backward, strictly alternating.
func interleavedProfile(t *testing.T) *Profile {
	t.Helper()
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	const n = 20
	for i := 0; i < n; i++ {
		s.EmitAs(id, trace.OpRead, i, n, 1)
		s.EmitAs(id, trace.OpRead, n-1-i, n, 2)
	}
	profiles := Build(s, rec.Events())
	if len(profiles) != 1 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	return profiles[0]
}

func TestByThreadSplits(t *testing.T) {
	p := interleavedProfile(t)
	slices := p.ByThread()
	if len(slices) != 2 {
		t.Fatalf("slices = %d", len(slices))
	}
	if slices[0].Thread != 1 || slices[1].Thread != 2 {
		t.Errorf("thread order = %d, %d", slices[0].Thread, slices[1].Thread)
	}
	for _, ts := range slices {
		if ts.Profile.Len() != 20 {
			t.Errorf("thread %d has %d events", ts.Thread, ts.Profile.Len())
		}
		if ts.Profile.Instance.ID != p.Instance.ID {
			t.Error("sub-profile lost instance metadata")
		}
	}
	// Thread 1's events are forward, thread 2's backward.
	r1 := segment(slices[0].Profile.Events)
	r2 := segment(slices[1].Profile.Events)
	if len(r1) != 1 || r1[0].Direction != DirForward {
		t.Errorf("thread 1 runs = %v", r1)
	}
	if len(r2) != 1 || r2[0].Direction != DirBackward {
		t.Errorf("thread 2 runs = %v", r2)
	}
	// The merged profile's strict segmentation sees a zigzag: no long runs.
	for _, r := range segment(p.Events) {
		if r.Len() > 2 {
			t.Errorf("interleaved profile produced run %v", r)
		}
	}
}

func TestByThreadSingleThreadShares(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	for i := 0; i < 5; i++ {
		s.Emit(id, trace.OpRead, i, 5)
	}
	p := Build(s, rec.Events())[0]
	slices := p.ByThread()
	if len(slices) != 1 {
		t.Fatalf("slices = %d", len(slices))
	}
	if slices[0].Profile != p {
		t.Error("single-thread split should share the original profile")
	}
	if got := p.Stats().Threads; got != 1 {
		t.Errorf("Threads = %d", got)
	}
}

func TestByThreadEmpty(t *testing.T) {
	p := &Profile{}
	if got := p.ByThread(); got != nil {
		t.Errorf("empty ByThread = %v", got)
	}
}

func TestSharedAccess(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	// Thread 1 writes, threads 2 and 3 read.
	s.EmitAs(id, trace.OpInsert, 0, 1, 1)
	s.EmitAs(id, trace.OpRead, 0, 1, 2)
	s.EmitAs(id, trace.OpRead, 0, 1, 3)
	p := Build(s, rec.Events())[0]
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
	sa := SharedAccessOf(Build(s, rec.Events())[0])
	if !sa.Shared() || sa.Contended() {
		t.Errorf("read-only sharing = %+v", sa)
	}
}

func TestSharedAccessSingle(t *testing.T) {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	s.Emit(id, trace.OpInsert, 0, 1)
	sa := SharedAccessOf(Build(s, rec.Events())[0])
	if sa.Shared() || sa.Contended() {
		t.Errorf("single-thread = %+v", sa)
	}
}
