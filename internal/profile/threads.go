package profile

import (
	"sort"

	"dsspy/internal/trace"
)

// Multithreaded profiles. The paper binds a thread id to every access event
// so DSspy can "support single- and multithreaded code" and "detect
// successive access events" (§IV): a pattern is only a pattern when its
// events belong to one thread — two goroutines interleaving forward scans do
// not form one forward scan.

// ThreadSlice is the sub-profile of one thread on one instance.
type ThreadSlice struct {
	Thread  trace.ThreadID
	Profile *Profile
}

// ByThread splits the profile into per-thread sub-profiles, ordered by
// thread id. Each sub-profile keeps the original instance metadata and the
// chronological order of its thread's events. A single-threaded profile
// returns one slice that shares the original event slice.
func (p *Profile) ByThread() []ThreadSlice {
	if len(p.Events) == 0 {
		return nil
	}
	single := true
	first := p.Events[0].Thread
	for _, e := range p.Events[1:] {
		if e.Thread != first {
			single = false
			break
		}
	}
	if single {
		return []ThreadSlice{{Thread: first, Profile: p}}
	}
	byThread := make(map[trace.ThreadID][]trace.Event)
	for _, e := range p.Events {
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}
	ids := make([]trace.ThreadID, 0, len(byThread))
	for id := range byThread {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]ThreadSlice, 0, len(ids))
	for _, id := range ids {
		out = append(out, ThreadSlice{
			Thread:  id,
			Profile: &Profile{Instance: p.Instance, Events: byThread[id]},
		})
	}
	return out
}

// SharedAccess describes concurrent use of one instance: how many threads
// touched it and whether any of them mutated it. An instance written by one
// thread and read by others concurrently is exactly the situation the
// parallel container libraries' thread-safe variants exist for.
type SharedAccess struct {
	Threads        int
	WritingThreads int
	ReadingThreads int
}

// Shared reports whether more than one thread accessed the instance.
func (sa SharedAccess) Shared() bool { return sa.Threads > 1 }

// Contended reports whether concurrent use includes at least one writer —
// the profile of a data race unless the structure is synchronized.
func (sa SharedAccess) Contended() bool {
	return sa.Threads > 1 && sa.WritingThreads > 0
}

// SharedAccessOf summarizes the profile's thread interaction. The thread
// tallies ride along in the profile's cached Stats pass, so this costs one
// event sweep at most — shared with every other Stats consumer.
func SharedAccessOf(p *Profile) SharedAccess {
	st := p.Stats()
	return SharedAccess{
		Threads:        st.Threads,
		WritingThreads: st.WriterIDs,
		ReadingThreads: st.ReaderIDs,
	}
}
