// Streaming use-case detection: the per-instance state of the eight
// detectors re-expressed as one online reducer. Fold events, closed runs and
// patterns as they arrive; Finish applies the thresholds of detect.go to the
// folded aggregates once the instance kind and stats are known. Every
// aggregate here is order-insensitive (sums, maxes, counters) or depends only
// on run adjacency in stream order (Sort-After-Insert, Write-Without-Read),
// so any split of the stream into spans — per event (Event) or per thread
// run, as the end counts of profile.FoldRun's pass (Ends) — reaches the same
// answer. The analyzer (internal/core) drives it; it is the only use-case
// engine.
package usecase

import (
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// Stream accumulates the bounded per-instance detector state. Zero value is
// not ready — use NewStream (the coverage threshold is consulted during
// pattern folds, not only at Finish).
type Stream struct {
	th Thresholds

	// Implement-Queue: end-affinity counters over indexed events.
	iqInsFront, iqInsBack, iqOutFront, iqOutBack int

	// Stack-Implementation: end-affinity counters with the both-ends special
	// case for accesses to a (nearly) empty structure.
	siInsFront, siInsBack, siDelFront, siDelBack int

	// Long-Insert: events inside / longest insertion pattern. Write patterns
	// are tracked separately so the fixed-size-array resolution (writes count
	// as insertion phases) can happen at Finish, when the kind is known.
	liInsEvents, liInsLongest int
	liWrEvents, liWrLongest   int

	// Frequent-Search: events inside directional read patterns.
	fsDirReadEvents int

	// Frequent-Long-Read: directional read patterns covering enough of the
	// structure.
	flrLongReads int

	// Sort-After-Insert: insert events over the global runs, the immediately
	// preceding run, and the first long-insert-then-sort adjacency.
	saiInsertEvents int
	saiPrevOp       trace.Op
	saiPrevLen      int
	saiHavePrev     bool
	saiMatchedLen   int

	// Write-Without-Read: the last non-Clear run seen so far.
	wwrLastOp  trace.Op
	wwrLastLen int
	wwrSeen    bool
}

// NewStream returns a reducer applying the given thresholds.
func NewStream(th Thresholds) *Stream {
	return &Stream{th: th}
}

// Event folds one access event (any order across threads; the counters are
// order-insensitive).
func (u *Stream) Event(e trace.Event) {
	if e.Index < 0 {
		return
	}
	front := e.Index == 0
	back := atBack(e)
	switch e.Op {
	case trace.OpInsert:
		if front {
			u.iqInsFront++
		} else if back {
			u.iqInsBack++
		}
		if front && e.Size <= 1 {
			// First element of an empty structure is both ends; count it
			// where the rest of the run goes.
			u.siInsBack++
			u.siInsFront++
		} else if front {
			u.siInsFront++
		} else if back {
			u.siInsBack++
		}
	case trace.OpDelete:
		if front {
			u.iqOutFront++
		} else if back {
			u.iqOutBack++
		}
		if front && e.Size == 0 {
			u.siDelFront++
			u.siDelBack++
		} else if front {
			u.siDelFront++
		} else if back {
			u.siDelBack++
		}
	case trace.OpRead:
		if front {
			u.iqOutFront++
		} else if back {
			u.iqOutBack++
		}
	}
}

// FoldBatch folds events [i, j) of a column batch through Event, one event
// at a time: the reference form, timed alone. The analyzer folds the end
// counts FoldRun's pass leaves (Ends).
func (u *Stream) FoldBatch(b *trace.ColumnBatch, i, j int) {
	for k := i; k < j; k++ {
		u.Event(b.At(k))
	}
}

// Ends folds the end counts of a span of events: Event applied to each of
// them, summed.
func (u *Stream) Ends(c *profile.EndCounts) {
	u.iqInsFront += c.InsFront
	u.iqInsBack += c.InsBack
	u.siInsFront += c.InsFront
	u.siInsBack += c.InsBack + c.InsEmpty
	u.iqOutFront += c.DelFront + c.ReadFront
	u.iqOutBack += c.DelBack + c.ReadBack
	u.siDelFront += c.DelFront
	u.siDelBack += c.DelBack + c.DelEmpty
}

// Runs folds closed runs of the instance's global run stream, in order.
func (u *Stream) Runs(closes []profile.RunClose) {
	for _, c := range closes {
		u.Run(c.Op, c.Len)
	}
}

// Run folds one closed run of the instance's global (default-options)
// segmentation, n events of op, in stream order — Sort-After-Insert needs
// run adjacency and Write-Without-Read needs the terminal run. Nothing else
// of the run matters here, so a run is never built for this fold.
func (u *Stream) Run(op trace.Op, n int) {
	if op == trace.OpInsert {
		u.saiInsertEvents += n
	}
	// Adjacency check before updating prev: a sort run matches only the run
	// immediately before it.
	if u.saiMatchedLen == 0 && op == trace.OpSort && u.saiHavePrev &&
		u.saiPrevOp == trace.OpInsert && u.saiPrevLen >= u.th.SAIMinRunLen {
		u.saiMatchedLen = u.saiPrevLen
	}
	u.saiPrevOp, u.saiPrevLen, u.saiHavePrev = op, n, true

	if op != trace.OpClear {
		u.wwrLastOp, u.wwrLastLen, u.wwrSeen = op, n, true
	}
}

// Pattern folds one detected pattern (from the per-thread detectors, any
// order; the aggregates are sums and maxes). It reads the record the
// detector built when it classified the run — the same record the report
// lists — so the live fold and a fold over a finished summary's pattern list
// agree by construction.
func (u *Stream) Pattern(p pattern.Pattern) {
	n := p.Len()
	switch p.Type {
	case pattern.InsertFront, pattern.InsertBack:
		u.liInsEvents += n
		if n > u.liInsLongest {
			u.liInsLongest = n
		}
	case pattern.WriteForward, pattern.WriteBackward:
		u.liWrEvents += n
		if n > u.liWrLongest {
			u.liWrLongest = n
		}
	case pattern.ReadForward, pattern.ReadBackward:
		u.fsDirReadEvents += n
		if p.Coverage() >= u.th.FLRMinCoverage {
			u.flrLongReads++
		}
	}
}

// Finish applies the detectors to the folded state and returns the use cases
// that fire, in Kind order. ct is the cross-thread contention summary; nil
// (or a single-threaded profile) skips the concurrency-aware detectors. The
// reducer may keep folding afterwards (snapshots finalize a Clone, not the
// live reducer).
func (u *Stream) Finish(inst trace.Instance, st *profile.Stats, ct *profile.Contention) []UseCase {
	if st.Total == 0 {
		return nil
	}
	var out []UseCase
	add := func(k Kind, evidence string) {
		out = append(out, UseCase{
			Kind:           k,
			Instance:       inst,
			Evidence:       evidence,
			Recommendation: k.Action(),
		})
	}

	if ev, ok := u.longInsert(inst, st); ok {
		add(LongInsert, ev)
	}
	if ev, ok := u.implementQueue(inst, st); ok {
		add(ImplementQueue, ev)
	}
	if ev, ok := u.sortAfterInsert(inst, st); ok {
		add(SortAfterInsert, ev)
	}
	if ev, ok := u.frequentSearch(st); ok {
		add(FrequentSearch, ev)
	}
	if ev, ok := u.frequentLongRead(st); ok {
		add(FrequentLongRead, ev)
	}
	if ev, ok := u.insertDeleteFront(inst, st); ok {
		add(InsertDeleteFront, ev)
	}
	if ev, ok := u.stackImplementation(inst, st); ok {
		add(StackImplementation, ev)
	}
	if ev, ok := u.writeWithoutRead(); ok {
		add(WriteWithoutRead, ev)
	}
	if ct != nil && st.Threads > 1 {
		if ev, ok := u.contendedMap(inst, st, ct); ok {
			add(ContendedMap, ev)
		}
		if ev, ok := u.mpscQueue(inst, st, ct); ok {
			add(MPSCQueue, ev)
		}
		if ev, ok := u.readMostlyTable(inst, st); ok {
			add(ReadMostlyTable, ev)
		}
		if ev, ok := u.phaseSeparatedRW(st, ct); ok {
			add(PhaseSeparatedRW, ev)
		}
	}
	return out
}

// KindsMask runs every detector over the folded aggregates and returns a
// bitmask (bit = Kind) of the kinds that currently fire. This is the
// classification fingerprint the adaptive sampling controller compares
// across windows: it needs stability, not evidence, so the (cheap) detector
// booleans are enough — only firing detectors pay for their evidence
// strings. Safe to call on the live reducer from the fold goroutine.
func (u *Stream) KindsMask(inst trace.Instance, st *profile.Stats, ct *profile.Contention) uint16 {
	if st.Total == 0 {
		return 0
	}
	var mask uint16
	if _, ok := u.longInsert(inst, st); ok {
		mask |= 1 << LongInsert
	}
	if _, ok := u.implementQueue(inst, st); ok {
		mask |= 1 << ImplementQueue
	}
	if _, ok := u.sortAfterInsert(inst, st); ok {
		mask |= 1 << SortAfterInsert
	}
	if _, ok := u.frequentSearch(st); ok {
		mask |= 1 << FrequentSearch
	}
	if _, ok := u.frequentLongRead(st); ok {
		mask |= 1 << FrequentLongRead
	}
	if _, ok := u.insertDeleteFront(inst, st); ok {
		mask |= 1 << InsertDeleteFront
	}
	if _, ok := u.stackImplementation(inst, st); ok {
		mask |= 1 << StackImplementation
	}
	if _, ok := u.writeWithoutRead(); ok {
		mask |= 1 << WriteWithoutRead
	}
	if ct != nil && st.Threads > 1 {
		if _, ok := u.contendedMap(inst, st, ct); ok {
			mask |= 1 << ContendedMap
		}
		if _, ok := u.mpscQueue(inst, st, ct); ok {
			mask |= 1 << MPSCQueue
		}
		if _, ok := u.readMostlyTable(inst, st); ok {
			mask |= 1 << ReadMostlyTable
		}
		if _, ok := u.phaseSeparatedRW(st, ct); ok {
			mask |= 1 << PhaseSeparatedRW
		}
	}
	return mask
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (u *Stream) Clone() *Stream {
	out := *u
	return &out
}
