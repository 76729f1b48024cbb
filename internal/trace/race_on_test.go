//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in. Allocation
// guards that ride on sync.Pool skip themselves under it: the race runtime
// drops a random share of Pool.Put calls on purpose.
const raceEnabled = true
