// Package usecase implements the paper's eight generic use cases (§III.B):
// statements about how a data structure is used, each with threshold values
// and a recommended action. Five carry parallel potential — Long-Insert,
// Implement-Queue, Sort-After-Insert, Frequent-Search and Frequent-Long-Read
// — and three are sequential optimizations: Insert/Delete-Front,
// Stack-Implementation and Write-Without-Read.
//
// Beyond the paper, four concurrency-aware use cases read the per-instance
// cross-thread summary (profile.Contention): Contended-Map, MPSC-Queue,
// Read-Mostly-Table and Phase-Separated-RW. They fire only on instances
// touched by more than one thread, so single-threaded analysis is unchanged.
package usecase

import (
	"fmt"

	"dsspy/internal/trace"
)

// Kind enumerates the eight use cases.
type Kind uint8

const (
	// LongInsert (LI): an insertion pattern from either end of a linear
	// data structure that inserts more than one element, in a profile with
	// frequent insertion phases.
	LongInsert Kind = iota
	// ImplementQueue (IQ): a data structure used like a queue but
	// implemented as a list.
	ImplementQueue
	// SortAfterInsert (SAI): a sort directly after a long insertion phase,
	// so insertion order does not matter.
	SortAfterInsert
	// FrequentSearch (FS): the program often searches for specific
	// elements within a linear data structure.
	FrequentSearch
	// FrequentLongRead (FLR): repeated sequential read patterns over the
	// majority of the elements — a disguised search.
	FrequentLongRead
	// InsertDeleteFront (IDF): inserts/deletes on a fixed-size array cause
	// repeated copy overhead.
	InsertDeleteFront
	// StackImplementation (SI): inserts and deletes always access a common
	// end of a list.
	StackImplementation
	// WriteWithoutRead (WWR): the profile ends with write patterns whose
	// results are never read.
	WriteWithoutRead

	// The concurrency-aware use cases extend the paper's eight with
	// detections over the cross-thread contention summary
	// (profile.Contention). They only ever fire on instances touched by
	// more than one thread, so single-threaded reports are unchanged.

	// ContendedMap (CM): a map-like structure under interleaved
	// multi-thread access with several writing threads — lock contention
	// central; shard it by key.
	ContendedMap
	// MPSCQueue (MQ): a queue-shaped structure fed by multiple producers
	// and drained by a single consumer (or the SPMC mirror image).
	MPSCQueue
	// ReadMostlyTable (RMT): a table read concurrently by several threads
	// with rare writes — reader/writer locking beats mutual exclusion.
	ReadMostlyTable
	// PhaseSeparatedRW (PRW): reads and writes alternate in few long
	// phases and writes are never contended — synchronize at phase
	// boundaries, not per access.
	PhaseSeparatedRW
	numKinds
)

var kindInfo = [...]struct {
	name, short, action string
	parallel            bool
}{
	LongInsert: {"Long-Insert", "LI",
		"Parallelize the insert operation.", true},
	ImplementQueue: {"Implement-Queue", "IQ",
		"Employ a parallel queue as data container.", true},
	SortAfterInsert: {"Sort-After-Insert", "SAI",
		"The insertion order is not important: parallelize both the insert and the sort phase.", true},
	FrequentSearch: {"Frequent-Search", "FS",
		"Either employ a parallel data structure that is optimized for searches, or parallelize the search operation by splitting the list into smaller chunks and searching them in parallel.", true},
	FrequentLongRead: {"Frequent-Long-Read", "FLR",
		"Check the origin of this access. In case it contains a program loop that looks for a specific element, the program might profit from transforming this operation into a parallel search operation.", true},
	InsertDeleteFront: {"Insert/Delete-Front", "IDF",
		"Insert and delete patterns occur in combination on a fixed-size array; a dynamic data structure like a list might be better suited.", false},
	StackImplementation: {"Stack-Implementation", "SI",
		"Analyze the data structure and think about using a stack implementation.", false},
	WriteWithoutRead: {"Write-Without-Read", "WWR",
		"Check if the write accesses at the end of this profile are necessary; cleanup writes resemble deallocation and should be left to garbage collection.", false},
	ContendedMap: {"Contended-Map", "CM",
		"Shard the map by key hash so concurrent writers hit disjoint shards instead of one lock.", true},
	MPSCQueue: {"MPSC-Queue", "MQ",
		"Replace the list-backed queue with a bounded multi-producer ring buffer; producers enqueue without blocking each other and the consumer drains in order.", true},
	ReadMostlyTable: {"Read-Mostly-Table", "RMT",
		"Guard the table with a reader/writer lock so concurrent readers proceed in parallel and only the rare writes take the exclusive lock.", true},
	PhaseSeparatedRW: {"Phase-Separated-RW", "PRW",
		"Reads and writes occur in separate phases: parallelize within each phase and synchronize at the phase boundary instead of locking every access.", true},
}

// String returns the paper's use-case name.
func (k Kind) String() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Short returns the paper's abbreviation (LI, IQ, SAI, FS, FLR, IDF, SI, WWR).
func (k Kind) Short() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].short
	}
	return "?"
}

// Parallel reports whether the use case carries parallel potential.
func (k Kind) Parallel() bool {
	return int(k) < len(kindInfo) && kindInfo[k].parallel
}

// Action returns the recommended action for the use case.
func (k Kind) Action() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].action
	}
	return ""
}

// Kinds lists all use cases: the paper's eight in paper order, then the
// concurrency-aware four.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParallelKinds lists the paper's five use cases with parallel potential.
// The concurrency-aware kinds are all parallel too but are listed separately
// (ContentionKinds) — the paper's Table IV accounting counts only these five.
func ParallelKinds() []Kind {
	return []Kind{LongInsert, ImplementQueue, SortAfterInsert, FrequentSearch, FrequentLongRead}
}

// ContentionKinds lists the concurrency-aware use cases.
func ContentionKinds() []Kind {
	return []Kind{ContendedMap, MPSCQueue, ReadMostlyTable, PhaseSeparatedRW}
}

// UseCase is one detected use case on one instance: the location, the
// evidence that crossed the thresholds, and the recommended action.
type UseCase struct {
	Kind           Kind
	Instance       trace.Instance
	Evidence       string
	Recommendation string
	// Bound is the sampling-derived detection error bound: 0 for a
	// detection from a full-fidelity stream (exact), >0 when the
	// instance's stream was adaptively sampled (internal/sample). Under
	// Report.Merge bounds only widen.
	Bound float64 `json:",omitempty"`
}

func (u UseCase) String() string {
	return fmt.Sprintf("%s on %s %s: %s", u.Kind, u.Instance.TypeName, u.Instance.Label, u.Evidence)
}

// Confidence is 1 - Bound: 1 for exact detections.
func (u UseCase) Confidence() float64 { return 1 - u.Bound }

// Thresholds carries every tunable the paper states in §III.B, plus the
// handful it leaves implicit (documented at each field).
type Thresholds struct {
	// LIMinPhaseFraction: insertion phases must exceed this share of the
	// profile (paper: >30 % of runtime; we measure event share).
	LIMinPhaseFraction float64
	// LIMinRunLen: an insertion phase is long from this many consecutive
	// access events (paper: 100).
	LIMinRunLen int

	// IQMinEndFraction: reads+writes on the two different ends must exceed
	// this share in sum (paper: >60 %).
	IQMinEndFraction float64
	// IQMinOps: minimum accesses before the queue judgment is made — the
	// paper requires a "high amount of read and write accesses", which a
	// three-event profile is not (implicit).
	IQMinOps int
	// IQMinPerEndFraction: each end must carry at least this share, so a
	// pure insertion profile does not pass as a queue (implicit in the
	// paper's "two different ends").
	IQMinPerEndFraction float64

	// SAIMinPhaseFraction / SAIMinRunLen mirror LI for the insertion phase
	// preceding the sort (paper: >30 %, >100).
	SAIMinPhaseFraction float64
	SAIMinRunLen        int

	// FSMinSearchOps: search operations needed (paper: >1000).
	FSMinSearchOps int
	// FSMinSearchFraction: share of events that are searches or
	// directional reads (paper: ≥2 % Read-Forward/Backward patterns).
	FSMinSearchFraction float64

	// FLRMinPatterns: sequential read patterns needed (paper: >10).
	FLRMinPatterns int
	// FLRMinReadFraction: share of Read/Search access types (paper: 50 %).
	FLRMinReadFraction float64
	// FLRMinCoverage: each pattern must read this share of the structure
	// (paper: 50 %).
	FLRMinCoverage float64

	// IDFMinOps: combined insert+delete events on an array (implicit).
	IDFMinOps int

	// SIMinOps: combined insert+delete events sharing a common end
	// (implicit).
	SIMinOps int

	// WWRMinTrailingWrites: length of the terminal write pattern
	// (implicit).
	WWRMinTrailingWrites int

	// The concurrency-aware thresholds. These are ours, not the paper's —
	// the paper's detectors are interleaving-blind — chosen so that casual
	// cross-thread touches (a handoff, a final read) never fire.

	// CMMinOps: accesses before the contended-map judgment is made.
	CMMinOps int
	// CMMinEpisodeShare: share of events that must fall inside contention
	// episodes.
	CMMinEpisodeShare float64
	// CMMinWriters: distinct writing threads required.
	CMMinWriters int

	// MQMinOps / MQMinEndFraction mirror IQ's volume and end-affinity
	// requirements for the cross-thread producer/consumer shape.
	MQMinOps         int
	MQMinEndFraction float64

	// RMTMinOps / RMTMinReadFraction: volume and read share for the
	// read-mostly table.
	RMTMinOps          int
	RMTMinReadFraction float64

	// PRWMinOps / PRWMaxPhases: volume cap and maximum number of
	// read/write phases for the phase-separated profile.
	PRWMinOps    int
	PRWMaxPhases int
}

// Default returns the paper's threshold values (§III.B), with the implicit
// ones chosen as documented on Thresholds.
func Default() Thresholds {
	return Thresholds{
		LIMinPhaseFraction:   0.30,
		LIMinRunLen:          100,
		IQMinEndFraction:     0.60,
		IQMinPerEndFraction:  0.05,
		IQMinOps:             20,
		SAIMinPhaseFraction:  0.30,
		SAIMinRunLen:         100,
		FSMinSearchOps:       1000,
		FSMinSearchFraction:  0.02,
		FLRMinPatterns:       10,
		FLRMinReadFraction:   0.50,
		FLRMinCoverage:       0.50,
		IDFMinOps:            6,
		SIMinOps:             10,
		WWRMinTrailingWrites: 3,
		CMMinOps:             64,
		CMMinEpisodeShare:    0.25,
		CMMinWriters:         2,
		MQMinOps:             64,
		MQMinEndFraction:     0.60,
		RMTMinOps:            64,
		RMTMinReadFraction:   0.90,
		PRWMinOps:            64,
		PRWMaxPhases:         8,
	}
}
