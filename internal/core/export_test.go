package core

// Internals the external test package checks MergeReports against.

// MergeKeyed is the keyed merge path, for differential tests.
func MergeKeyed(reports ...*Report) (*Report, MergeStats) { return mergeKeyed(reports) }

// MergesDisjoint reports whether MergeReports takes its map-free path for
// these inputs.
func MergesDisjoint(reports ...*Report) bool {
	_, _, ok := disjointInputs(reports)
	return ok
}

// FeedCap is the most pieces Feed keeps taken from its pool at once.
func (a *StreamAnalyzer) FeedCap() int { return feedPiecesPerShard * len(a.shards) }

// PiecesInFlight counts Feed's pieces not yet back in the pool.
func (a *StreamAnalyzer) PiecesInFlight() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.pieces)
}

// HoldShard stops the shard's fold worker before its next batch until
// release is called.
func (a *StreamAnalyzer) HoldShard(shard int) (release func()) {
	sh := a.shards[shard]
	sh.mu.Lock()
	return sh.mu.Unlock
}

// ClosedWindows returns the tenant's ring of closed-window reports.
func (dm *Daemon) ClosedWindows(tenant string) []*Report {
	tw := dm.tenant(tenant)
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return append([]*Report(nil), tw.closed...)
}
