// Package profile holds the per-instance reducers between raw events and the
// paper's access patterns: statistics (StreamStats), segmentation into
// directional runs (StreamSegmenter) and the cross-thread contention summary
// (StreamContention).
//
// A runtime profile contains all access events of one data-structure
// instance from initialization to deallocation in chronological order
// (§II.B). The phase-detection step ("After the execution of the
// instrumented program DSspy executes the phase detection on the access
// proﬁles", §IV) assigns all access events to their instantiation location
// and derives per-instance statistics and maximal same-operation runs. The
// analyzer does both as it folds the stream, so a report's Profile is
// event-free (NewStreamed).
package profile

import (
	"fmt"

	"dsspy/internal/trace"
)

// Profile is the runtime profile of one data-structure instance, as the
// analyzer folded it: the event count and the aggregate figures, not the
// events. The renderers draw the events from the run's column batch.
type Profile struct {
	Instance trace.Instance

	n     int
	stats *Stats
}

// Len returns the number of events folded into the profile.
func (p *Profile) Len() int { return p.n }

// Stats holds per-profile aggregate figures the use-case engine consumes.
type Stats struct {
	Total      int
	ByOp       [16]int // indexed by trace.Op
	MaxIndex   int     // largest index observed; -1 if none
	MaxSize    int     // largest size observed
	FinalSize  int     // size recorded on the last event
	ReadLike   int     // events whose op IsRead
	WriteLike  int     // events whose op IsWrite
	Threads    int     // distinct thread ids observed (0 counts once if present)
	WriterIDs  int     // distinct thread ids that issued a write-like event
	ReaderIDs  int     // distinct thread ids that issued a read-like event
	FrontHits  int     // indexed events targeting the front end
	BackHits   int     // indexed events targeting the back end
	IndexedOps int     // events with a real index
}

// endTolerance classifies an access as hitting the front or back end when it
// lands within this many positions of it. The paper's queue detection talks
// about "two different ends" without pinning a tolerance; 0 (exact) is the
// strict reading and what we use.
const endTolerance = 0

// threadSet is a tiny linear-scan set. Profiles see a handful of distinct
// thread ids, so scanning a short slice (checking the most recent id first —
// events of one thread cluster) beats a hash insert per event.
type threadSet []trace.ThreadID

func (ts *threadSet) add(id trace.ThreadID) {
	s := *ts
	if n := len(s); n > 0 && s[n-1] == id {
		return
	}
	for _, have := range s {
		if have == id {
			return
		}
	}
	*ts = append(s, id)
}

// Stats returns the folded aggregate figures; a zero Profile reports those
// of an empty stream.
func (p *Profile) Stats() *Stats {
	if p.stats == nil {
		var ss StreamStats
		p.stats = ss.Snapshot()
	}
	return p.stats
}

// Count returns the number of events with the given access type.
func (s *Stats) Count(op trace.Op) int {
	if int(op) < len(s.ByOp) {
		return s.ByOp[op]
	}
	return 0
}

// Fraction returns n/Total, or 0 for an empty profile.
func (s *Stats) Fraction(n int) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(n) / float64(s.Total)
}

func (p *Profile) String() string {
	return fmt.Sprintf("Profile{%s %s, %d events}",
		p.Instance.TypeName, p.Instance.Label, p.Len())
}
