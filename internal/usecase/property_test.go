package usecase_test

import (
	"testing"
	"testing/quick"

	"dsspy/internal/core"
	"dsspy/internal/trace"
	. "dsspy/internal/usecase"
)

// Property tests over the detector engine: threshold monotonicity and
// detector stability on randomized profiles. These pin the contract the
// tuner relies on — loosening a threshold can only add findings, tightening
// can only remove them.

// randomProfile is one list instance's recorded run of a compact random
// script, so quick can shrink failures: each step is either a batch of
// appends, a full scan, a burst of searches, or a clear.
type randomProfile struct {
	s      *trace.Session
	id     trace.InstanceID
	events []trace.Event
}

func newRandomProfile(script []uint8) randomProfile {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: rec})
	id := s.Register(trace.KindList, "List[int]", "", 0)
	size := 0
	for _, step := range script {
		switch step % 4 {
		case 0: // append burst
			n := int(step/4)%60 + 1
			for i := 0; i < n; i++ {
				s.Emit(id, trace.OpInsert, size, size+1)
				size++
			}
		case 1: // full forward scan
			for i := 0; i < size; i++ {
				s.Emit(id, trace.OpRead, i, size)
			}
		case 2: // search burst
			n := int(step/4)%40 + 1
			for i := 0; i < n; i++ {
				s.Emit(id, trace.OpSearch, i%maxInt(size, 1), size)
			}
		case 3: // clear
			s.Emit(id, trace.OpClear, trace.NoIndex, 0)
			size = 0
		}
	}
	return randomProfile{s: s, id: id, events: rec.Events()}
}

// detect analyzes the run under th and returns the instance's use cases.
func (p randomProfile) detect(th Thresholds) []UseCase {
	cfg := core.DefaultConfig()
	cfg.Thresholds = th
	return core.NewWith(cfg).Analyze(p.s, p.events).UseCases()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func kindsOf(ucs []UseCase) map[Kind]bool {
	m := map[Kind]bool{}
	for _, u := range ucs {
		m[u.Kind] = true
	}
	return m
}

// subset reports whether every kind detected under a is also detected
// under b.
func subset(a, b map[Kind]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Tightening LI's run-length threshold must never create findings.
func TestPropertyTighterLIIsSubset(t *testing.T) {
	loose := Default()
	tight := Default()
	tight.LIMinRunLen = 500
	tight.SAIMinRunLen = 500
	f := func(script []uint8) bool {
		p := newRandomProfile(script)
		got := kindsOf(p.detect(tight))
		ref := kindsOf(p.detect(loose))
		// Only LI/SAI are affected by these knobs.
		return subsetOn(got, ref, LongInsert) && subsetOn(got, ref, SortAfterInsert)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Loosening FLR's pattern-count threshold must never lose FLR findings.
func TestPropertyLooserFLRIsSuperset(t *testing.T) {
	base := Default()
	loose := Default()
	loose.FLRMinPatterns = 1
	f := func(script []uint8) bool {
		p := newRandomProfile(script)
		got := kindsOf(p.detect(base))
		sup := kindsOf(p.detect(loose))
		return subsetOn(got, sup, FrequentLongRead)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Loosening FS's volume threshold must never lose FS findings.
func TestPropertyLooserFSIsSuperset(t *testing.T) {
	base := Default()
	loose := Default()
	loose.FSMinSearchOps = 1
	f := func(script []uint8) bool {
		p := newRandomProfile(script)
		got := kindsOf(p.detect(base))
		sup := kindsOf(p.detect(loose))
		return subsetOn(got, sup, FrequentSearch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func subsetOn(a, b map[Kind]bool, k Kind) bool {
	return !a[k] || b[k]
}

// Detection is deterministic: the same profile always yields the same
// findings, and each kind fires at most once per instance.
func TestPropertyDeterministicAndUnique(t *testing.T) {
	th := Default()
	f := func(script []uint8) bool {
		p := newRandomProfile(script)
		a := p.detect(th)
		b := p.detect(th)
		if len(a) != len(b) {
			return false
		}
		seen := map[Kind]bool{}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Evidence != b[i].Evidence {
				return false
			}
			if seen[a[i].Kind] {
				return false
			}
			seen[a[i].Kind] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Every finding carries the instance it was found on, a non-empty evidence
// string and the kind's canonical recommendation.
func TestPropertyFindingsWellFormed(t *testing.T) {
	th := Default()
	f := func(script []uint8) bool {
		p := newRandomProfile(script)
		for _, u := range p.detect(th) {
			if u.Instance.ID != p.id {
				return false
			}
			if u.Evidence == "" || u.Recommendation != u.Kind.Action() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
