package usecase

import (
	"fmt"

	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// The eight detectors. Each reads the aggregates its Stream reducer folded
// from events, runs and patterns, applies the paper's thresholds, and renders
// the evidence string. Every report reaches them through Stream.Finish, so
// the threshold semantics exist exactly once.

// linear reports whether the instance is a linear data structure — the use
// cases are defined over lists and arrays (DSspy implements its automatic
// analysis for exactly those two, §IV), plus the linear containers an
// engineer might hand-roll them from.
func linear(k trace.Kind) bool {
	switch k {
	case trace.KindList, trace.KindArray, trace.KindLinkedList, trace.KindSortedList:
		return true
	}
	return false
}

// longInsert: frequent insertion phases (>30 % of the profile) with at least
// one long phase (≥100 consecutive events) inserting more than one element.
// For fixed-size arrays a sequential write fill IS the insertion idiom — the
// paper's evaluation reports Long-Inserts on the Mandelbrot image array and
// on GPdotNET's fitness array, both populated by positional writes — so
// Write-Forward/Backward patterns on arrays count as insertion phases here.
func (u *Stream) longInsert(inst trace.Instance, st *profile.Stats) (string, bool) {
	insertEvents, longest := u.liInsEvents, u.liInsLongest
	if inst.Kind == trace.KindArray {
		insertEvents += u.liWrEvents
		longest = max(longest, u.liWrLongest)
	}
	frac := st.Fraction(insertEvents)
	if frac <= u.th.LIMinPhaseFraction || longest < u.th.LIMinRunLen {
		return "", false
	}
	return fmt.Sprintf("insertion phases cover %.0f%% of the profile; longest phase inserts %d consecutive elements",
		100*frac, longest), true
}

// implementQueue: a high share of accesses (>60 % in sum) affects two
// different ends — inserts at one end, reads/deletes at the other.
func (u *Stream) implementQueue(inst trace.Instance, st *profile.Stats) (string, bool) {
	if inst.Kind != trace.KindList && inst.Kind != trace.KindLinkedList {
		return "", false
	}
	if st.Total < u.th.IQMinOps {
		return "", false
	}
	// Orientation 1: produce at the back, consume at the front (a FIFO on
	// a list); orientation 2 is the mirror image.
	check := func(ins, outs int) (string, bool) {
		fi, fo := st.Fraction(ins), st.Fraction(outs)
		if fi+fo > u.th.IQMinEndFraction && fi >= u.th.IQMinPerEndFraction && fo >= u.th.IQMinPerEndFraction {
			return fmt.Sprintf("%.0f%% of accesses affect two different ends (%.0f%% insertions at one end, %.0f%% reads/deletes at the other)",
				100*(fi+fo), 100*fi, 100*fo), true
		}
		return "", false
	}
	if ev, ok := check(u.iqInsBack, u.iqOutFront); ok {
		return ev, true
	}
	return check(u.iqInsFront, u.iqOutBack)
}

// sortAfterInsert: a sort run directly follows a long insertion phase (>30 %
// of the profile, ≥100 consecutive events).
func (u *Stream) sortAfterInsert(inst trace.Instance, st *profile.Stats) (string, bool) {
	if !linear(inst.Kind) {
		return "", false
	}
	if st.Fraction(u.saiInsertEvents) <= u.th.SAIMinPhaseFraction {
		return "", false
	}
	if u.saiMatchedLen == 0 {
		return "", false
	}
	return fmt.Sprintf("a sort directly follows an insertion phase of %d consecutive elements — insertion order is irrelevant",
		u.saiMatchedLen), true
}

// frequentSearch: the program often searches within a linear data structure
// (>1000 search operations, and searches plus directional read patterns make
// up ≥2 % of all access events).
func (u *Stream) frequentSearch(st *profile.Stats) (string, bool) {
	searches := st.Count(trace.OpSearch)
	if searches <= u.th.FSMinSearchOps {
		return "", false
	}
	searchLike := searches + u.fsDirReadEvents
	if st.Fraction(searchLike) < u.th.FSMinSearchFraction {
		return "", false
	}
	return fmt.Sprintf("%d search operations (%.0f%% of all access events are search-like)",
		searches, 100*st.Fraction(searchLike)), true
}

// frequentLongRead: more than 10 sequential read patterns, each covering
// ≥50 % of the structure, in a profile where at least 50 % of the access
// types are Read or Search. A compound ForAll traversal counts as a
// full-coverage sequential read.
func (u *Stream) frequentLongRead(st *profile.Stats) (string, bool) {
	// The 50 % read share is over element accesses; lifecycle Clears are
	// not accesses to elements (the Figure 3 profile — equal insert and
	// read phases separated by Clears — is the paper's canonical FLR hit).
	elementAccesses := st.Total - st.Count(trace.OpClear)
	if elementAccesses == 0 {
		return "", false
	}
	readFrac := float64(st.ReadLike) / float64(elementAccesses)
	if readFrac < u.th.FLRMinReadFraction {
		return "", false
	}
	long := st.Count(trace.OpForAll) + u.flrLongReads
	if long <= u.th.FLRMinPatterns {
		return "", false
	}
	return fmt.Sprintf("%d sequential read patterns each covering ≥%.0f%% of the structure (%.0f%% of access types are reads/searches) — possibly a disguised search",
		long, 100*u.th.FLRMinCoverage, 100*readFrac), true
}

// insertDeleteFront: inserts and deletes on a fixed-size array cause copy
// overhead on every operation.
func (u *Stream) insertDeleteFront(inst trace.Instance, st *profile.Stats) (string, bool) {
	if inst.Kind != trace.KindArray {
		return "", false
	}
	ins, del := st.Count(trace.OpInsert), st.Count(trace.OpDelete)
	copies := st.Count(trace.OpCopy) + st.Count(trace.OpResize)
	if ins == 0 || del == 0 || ins+del < u.th.IDFMinOps || copies == 0 {
		return "", false
	}
	return fmt.Sprintf("%d inserts and %d deletes on a fixed-size array caused %d copy/resize operations",
		ins, del, copies), true
}

// stackImplementation: inserts and deletes always access a common end of a
// list.
func (u *Stream) stackImplementation(inst trace.Instance, st *profile.Stats) (string, bool) {
	if inst.Kind != trace.KindList && inst.Kind != trace.KindLinkedList {
		return "", false
	}
	ins, del := st.Count(trace.OpInsert), st.Count(trace.OpDelete)
	if ins == 0 || del == 0 || ins+del < u.th.SIMinOps {
		return "", false
	}
	if u.siInsBack == ins && u.siDelBack == del {
		return fmt.Sprintf("all %d inserts and %d deletes access the back end — a hand-rolled stack", ins, del), true
	}
	if u.siInsFront == ins && u.siDelFront == del {
		return fmt.Sprintf("all %d inserts and %d deletes access the front end — a hand-rolled stack", ins, del), true
	}
	return "", false
}

// writeWithoutRead: the profile ends with a write pattern whose results are
// never read — cleanup that should be left to deallocation. A terminal Clear
// is skipped by the Run fold (clearing after the cleanup writes is part of
// the same deallocation idiom), so the folded state holds the last non-Clear
// run.
func (u *Stream) writeWithoutRead() (string, bool) {
	if !u.wwrSeen || u.wwrLastOp != trace.OpWrite || u.wwrLastLen < u.th.WWRMinTrailingWrites {
		return "", false
	}
	return fmt.Sprintf("the profile ends with %d writes that are never read — likely cleanup better left to the garbage collector",
		u.wwrLastLen), true
}

// atBack mirrors the run segmentation's notion of the moving back end. For
// deletions the size has already shrunk, so the old back is at the new size.
func atBack(e trace.Event) bool {
	switch e.Op {
	case trace.OpDelete:
		return e.Index >= e.Size
	default:
		return e.Size > 0 && e.Index >= e.Size-1
	}
}
