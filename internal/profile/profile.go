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
// event-free (NewStreamed); Build derives the per-event view only for the
// renderers that draw the trace (core's Report.AttachEvents).
package profile

import (
	"fmt"
	"sort"

	"dsspy/internal/trace"
)

// Profile is the runtime profile of one data-structure instance.
type Profile struct {
	Instance trace.Instance
	Events   []trace.Event

	stats    *Stats // lazily computed
	streamed int    // event count when built by the stream pipeline (Events nil)
}

// Build groups events by instance and returns one profile per instance that
// raised at least one event, ordered by instance id. Events are assumed
// sequence-sorted (every collector and loader returns them that way); Build
// re-sorts defensively since correctness of all downstream analyses depends
// on chronological order.
func Build(s *trace.Session, events []trace.Event) []*Profile {
	sorted := make([]trace.Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	byInstance := make(map[trace.InstanceID][]trace.Event)
	for _, e := range sorted {
		byInstance[e.Instance] = append(byInstance[e.Instance], e)
	}

	ids := make([]trace.InstanceID, 0, len(byInstance))
	for id := range byInstance {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	profiles := make([]*Profile, 0, len(ids))
	for _, id := range ids {
		inst, ok := s.Instance(id)
		if !ok {
			inst = trace.Instance{ID: id, TypeName: "<unregistered>"}
		}
		profiles = append(profiles, &Profile{Instance: inst, Events: byInstance[id]})
	}
	return profiles
}

// Len returns the number of events in the profile. Stream-built profiles
// (NewStreamed) report the folded count without retaining the events.
func (p *Profile) Len() int {
	if p.Events == nil && p.streamed > 0 {
		return p.streamed
	}
	return len(p.Events)
}

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

// Stats computes (and caches) the aggregate figures by folding the view's
// events through StreamStats; stream-built and attached profiles answer from
// the primed figures.
func (p *Profile) Stats() *Stats {
	if p.stats != nil {
		return p.stats
	}
	var ss StreamStats
	for _, e := range p.Events {
		ss.Fold(e)
	}
	p.stats = ss.Snapshot()
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
		p.Instance.TypeName, p.Instance.Label, len(p.Events))
}
