package profile

import (
	"fmt"

	"dsspy/internal/trace"
)

// Direction is the temporal movement of access positions within a run.
type Direction int8

const (
	// DirNone marks runs too short to have a direction, or whole-structure
	// operations without positions.
	DirNone Direction = iota
	// DirForward marks positions increasing in time.
	DirForward
	// DirBackward marks positions decreasing in time.
	DirBackward
	// DirStationary marks repeated accesses to the same position.
	DirStationary
)

func (d Direction) String() string {
	switch d {
	case DirForward:
		return "Forward"
	case DirBackward:
		return "Backward"
	case DirStationary:
		return "Stationary"
	default:
		return "None"
	}
}

// Run is a maximal sequence of consecutive events in one profile that share
// an access type and, for positional access types, a consistent direction.
// Runs are what the paper calls phases; the pattern detectors classify them
// into the eight access-pattern types.
type Run struct {
	Op    trace.Op
	Start int // index of the first event in Profile.Events
	End   int // index of the last event (inclusive)

	Direction  Direction
	FirstIndex int // target position of the first event; NoIndex if none
	LastIndex  int // target position of the last event
	MinIndex   int
	MaxIndex   int

	// AllFront is true when every event targets position 0; AllBack when
	// every event targets the current back end. Insert/Delete-Front/Back
	// classification needs these, since a stream of front deletions has a
	// constant index of 0, not a direction.
	AllFront bool
	AllBack  bool

	// StrictlyUp and StrictlyDown report whether positions moved by exactly
	// +1 / -1 on every step. Appending to a list yields a strictly-up
	// insert run even when the recorded size is a constant capacity, and
	// popping from the back yields a strictly-down delete run; the pattern
	// detectors classify Insert-Back / Delete-Back from these.
	StrictlyUp   bool
	StrictlyDown bool

	// MaxSeenSize is the largest structure size recorded during the run;
	// Frequent-Long-Read compares run coverage against it.
	MaxSeenSize int
}

// Len returns the number of events in the run.
func (r *Run) Len() int { return r.End - r.Start + 1 }

// Coverage returns the fraction of the structure the run touched: distinct
// position span divided by the largest size seen during the run.
func (r *Run) Coverage() float64 {
	if r.MaxSeenSize <= 0 || r.FirstIndex < 0 {
		return 0
	}
	span := r.MaxIndex - r.MinIndex + 1
	return float64(span) / float64(r.MaxSeenSize)
}

func (r Run) String() string {
	return fmt.Sprintf("Run{%s %s len=%d idx=%d..%d}",
		r.Op, r.Direction, r.Len(), r.FirstIndex, r.LastIndex)
}

// SegmentOptions tunes run segmentation.
type SegmentOptions struct {
	// MaxStep is the largest index jump that still continues a directional
	// run. The paper's patterns are about adjacent elements, so the default
	// is 1; the segmentation ablation raises it.
	MaxStep int
	// AllowRepeat lets a repeated index (step 0) continue a directional run
	// instead of breaking it.
	AllowRepeat bool
}

// DefaultSegmentOptions matches the paper's strict adjacency reading.
func DefaultSegmentOptions() SegmentOptions {
	return SegmentOptions{MaxStep: 1, AllowRepeat: false}
}

func stepDirection(step int, opts SegmentOptions) Direction {
	switch {
	case step == 0:
		if opts.AllowRepeat {
			return DirStationary
		}
		return DirNone
	case step > 0 && step <= opts.MaxStep:
		return DirForward
	case step < 0 && -step <= opts.MaxStep:
		return DirBackward
	default:
		return DirNone
	}
}
