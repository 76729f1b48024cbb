// Package pattern detects the paper's eight access-pattern types in runtime
// profiles (§III.A): Read-Forward, Write-Forward, Read-Backward,
// Write-Backward, Insert-Front, Insert-Back, Delete-Front and Delete-Back.
//
// Patterns are classified from the directional runs package profile
// produces. A pattern is a run of adjacent same-type accesses whose target
// positions move consistently in time; runs shorter than MinLen are noise,
// not patterns.
package pattern

import (
	"fmt"

	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// Type enumerates the eight access-pattern types.
type Type uint8

const (
	// None marks a run that matches no pattern type.
	None Type = iota
	// ReadForward reads adjacent elements with positions increasing in time.
	ReadForward
	// WriteForward writes adjacent elements with positions increasing in time.
	WriteForward
	// ReadBackward reads adjacent elements with positions decreasing in time.
	ReadBackward
	// WriteBackward writes adjacent elements with positions decreasing in time.
	WriteBackward
	// InsertFront is adjacent insert operations that always start at the front.
	InsertFront
	// InsertBack is adjacent insert operations that always start from the end.
	InsertBack
	// DeleteFront is adjacent delete operations that always start at the front.
	DeleteFront
	// DeleteBack is adjacent delete operations that always start from the end.
	DeleteBack
	numTypes
)

var typeNames = [...]string{
	None:          "None",
	ReadForward:   "Read-Forward",
	WriteForward:  "Write-Forward",
	ReadBackward:  "Read-Backward",
	WriteBackward: "Write-Backward",
	InsertFront:   "Insert-Front",
	InsertBack:    "Insert-Back",
	DeleteFront:   "Delete-Front",
	DeleteBack:    "Delete-Back",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Types lists the eight pattern types in paper order.
func Types() []Type {
	return []Type{
		ReadForward, WriteForward, ReadBackward, WriteBackward,
		InsertFront, InsertBack, DeleteFront, DeleteBack,
	}
}

// Pattern is one detected access pattern: what a report keeps of a
// classified run. Every reader — the text report, the JSON export, the
// figures, the use-case and advisor layers — needs only the type, the length
// and the coverage, so the record holds those in 32 bytes rather than a copy
// of the segmenter's run state.
type Pattern struct {
	// Start and End are the ordinals of the run's first and last event
	// (inclusive) in the stream it was segmented from.
	Start, End int
	// Cover is the run's Coverage, computed once when it was classified.
	Cover float64
	Type  Type
}

// New records run r, classified as t.
func New(t Type, r *profile.Run) Pattern {
	return Pattern{Start: r.Start, End: r.End, Cover: r.Coverage(), Type: t}
}

// Len returns the number of access events in the pattern.
func (p Pattern) Len() int { return p.End - p.Start + 1 }

// Coverage returns the fraction of the structure the pattern traversed.
func (p Pattern) Coverage() float64 { return p.Cover }

func (p Pattern) String() string {
	return fmt.Sprintf("%s[len=%d cov=%.0f%%]", p.Type, p.Len(), 100*p.Coverage())
}

// Config tunes detection.
type Config struct {
	// MinLen is the minimum run length that counts as a pattern. The paper
	// speaks of "adjacent" operations, so two events are the floor.
	MinLen int
	// Segment configures run segmentation.
	Segment profile.SegmentOptions
}

// DefaultConfig matches the paper's strict reading.
func DefaultConfig() Config {
	return Config{MinLen: 2, Segment: profile.DefaultSegmentOptions()}
}

// Classify maps one run onto a pattern type, or None.
func Classify(r *profile.Run) Type {
	switch r.Op {
	case trace.OpRead:
		switch r.Direction {
		case profile.DirForward:
			return ReadForward
		case profile.DirBackward:
			return ReadBackward
		}
	case trace.OpWrite:
		switch r.Direction {
		case profile.DirForward:
			return WriteForward
		case profile.DirBackward:
			return WriteBackward
		}
	case trace.OpInsert:
		switch {
		case r.AllFront:
			return InsertFront
		case r.AllBack || r.StrictlyUp:
			return InsertBack
		}
	case trace.OpDelete:
		switch {
		case r.AllFront:
			return DeleteFront
		case r.AllBack || r.StrictlyDown:
			return DeleteBack
		}
	}
	return None
}

// Summary aggregates pattern statistics for one profile; the use-case
// detectors consume it together with profile.Stats.
type Summary struct {
	Patterns []Pattern
	ByType   [numTypes]int
	// EventsIn counts, per type, how many access events lie inside patterns
	// of that type.
	EventsIn [numTypes]int
	// SequentialReads is the number of Read-Forward plus Read-Backward
	// patterns — the "sequential read patterns" Frequent-Long-Read counts.
	SequentialReads int
	// LongestPattern is the event count of the longest pattern; the
	// regularity check thresholds it without re-walking the pattern list.
	LongestPattern int
	// Bound is the sampling-derived error bound on the summary: 0 when it
	// was built from a full-fidelity stream, >0 when the instance's
	// stream was adaptively sampled (internal/sample).
	Bound float64 `json:",omitempty"`
}

// add folds the aggregates of pattern p in, for the StreamDetector that
// classified it. It does not append to Patterns — retention is the
// detector's choice.
func (s *Summary) add(p *Pattern) {
	t, n := p.Type, p.Len()
	s.ByType[t]++
	s.EventsIn[t] += n
	if t == ReadForward || t == ReadBackward {
		s.SequentialReads++
	}
	if n > s.LongestPattern {
		s.LongestPattern = n
	}
}

// Merge folds another summary in. FinishMerged merges per-thread streaming
// detectors the same way.
func (s *Summary) Merge(sub *Summary) {
	s.Patterns = append(s.Patterns, sub.Patterns...)
	s.mergeCounts(sub)
}

// mergeCounts is Merge without the pattern list: the aggregates only.
func (s *Summary) mergeCounts(sub *Summary) {
	for i := range sub.ByType {
		s.ByType[i] += sub.ByType[i]
		s.EventsIn[i] += sub.EventsIn[i]
	}
	s.SequentialReads += sub.SequentialReads
	if sub.LongestPattern > s.LongestPattern {
		s.LongestPattern = sub.LongestPattern
	}
	// Bounds combine conservatively: the merged summary is at most as
	// certain as its least certain part.
	if sub.Bound > s.Bound {
		s.Bound = sub.Bound
	}
}

// InsertEvents returns the number of events inside insertion patterns.
func (s *Summary) InsertEvents() int {
	return s.EventsIn[InsertFront] + s.EventsIn[InsertBack]
}

// DirectionalReadEvents returns the number of events inside Read-Forward or
// Read-Backward patterns, the figure Frequent-Search thresholds against.
func (s *Summary) DirectionalReadEvents() int {
	return s.EventsIn[ReadForward] + s.EventsIn[ReadBackward]
}

// RegularityConfig decides when a profile "contains regularity" (§III.A):
// the manual study marked profiles whose charts showed recurring structure.
type RegularityConfig struct {
	// MinRepeats is the number of patterns of the same type that makes the
	// profile regular.
	MinRepeats int
	// MinLongRun is a single-pattern length that makes the profile regular
	// on its own.
	MinLongRun int
	// MinCompoundOps: a compound operation (Search, Sort, ForAll) recurring
	// this often is a regularity even without positional patterns — a
	// search loop charts as visible structure just like a read run.
	MinCompoundOps int
}

// DefaultRegularityConfig: either the same pattern recurs, one pattern is
// long enough that the access chart visibly shows structure, or a compound
// operation recurs heavily.
func DefaultRegularityConfig() RegularityConfig {
	return RegularityConfig{MinRepeats: 2, MinLongRun: 10, MinCompoundOps: 10}
}
