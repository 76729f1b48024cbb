package profile

// Multithreaded profiles. The paper binds a thread id to every access event
// so DSspy can "support single- and multithreaded code" and "detect
// successive access events" (§IV): a pattern is only a pattern when its
// events belong to one thread — two goroutines interleaving forward scans do
// not form one forward scan.

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

// SharedAccessOf summarizes the profile's thread interaction from the thread
// tallies among its folded Stats.
func SharedAccessOf(p *Profile) SharedAccess {
	st := p.Stats()
	return SharedAccess{
		Threads:        st.Threads,
		WritingThreads: st.WriterIDs,
		ReadingThreads: st.ReaderIDs,
	}
}
