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
