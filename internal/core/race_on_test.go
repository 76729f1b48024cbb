//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in. Allocation
// gates skip themselves under it: the race build allocates where the
// optimized one does not (bytes.Buffer's growth allocates its new array
// twice, for one).
const raceEnabled = true
