// Package trace implements the event-collection substrate of DSspy: the
// access-event model, per-session sequencing, the instance registry with
// call-site capture, and a family of recorders ranging from a simple
// in-memory sink to the paper's asynchronous collector and an out-of-process
// socket collector.
//
// Every interaction with an instrumented data structure (package dstruct)
// becomes one Event. Events are totally ordered by a session-wide sequence
// number, which stands in for the paper's timestamp: it is deterministic,
// cheap, and preserves the chronological order the analysis needs.
package trace

import (
	"fmt"
	"path/filepath"
)

// Op is the access type of an event. The paper distinguishes the trivial
// access types Read and Write from the compound access types Insert, Search,
// Delete, Clear, Copy, Reverse, Sort and ForAll (§IV). Resize is emitted by
// fixed-size arrays when they are reallocated, so the Insert/Delete-Front use
// case can see the copy overhead it is about.
type Op uint8

const (
	OpNone Op = iota
	OpRead
	OpWrite
	OpInsert
	OpDelete
	OpSearch
	OpClear
	OpCopy
	OpReverse
	OpSort
	OpForAll
	OpResize
	numOps
)

var opNames = [...]string{
	OpNone:    "None",
	OpRead:    "Read",
	OpWrite:   "Write",
	OpInsert:  "Insert",
	OpDelete:  "Delete",
	OpSearch:  "Search",
	OpClear:   "Clear",
	OpCopy:    "Copy",
	OpReverse: "Reverse",
	OpSort:    "Sort",
	OpForAll:  "ForAll",
	OpResize:  "Resize",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is one of the defined access types.
func (o Op) Valid() bool { return o > OpNone && o < numOps }

// IsRead reports whether the access type observes the structure without
// mutating it. Search is a read in this sense: it traverses elements.
func (o Op) IsRead() bool {
	switch o {
	case OpRead, OpSearch, OpForAll, OpCopy:
		return true
	}
	return false
}

// IsWrite reports whether the access type mutates the structure.
func (o Op) IsWrite() bool {
	switch o {
	case OpWrite, OpInsert, OpDelete, OpClear, OpReverse, OpSort, OpResize:
		return true
	}
	return false
}

// InstanceID identifies one data-structure instance within a Session.
// IDs are dense and start at 1; 0 means "no instance".
type InstanceID uint32

// ThreadID identifies the goroutine that raised an access event. The paper
// records a thread id with every event so multithreaded profiles can be
// untangled; we record the goroutine id (or 0 when capture is disabled).
type ThreadID uint32

// NoIndex is the Index value for events that have no single target position,
// such as Clear, Sort or Reverse, which affect the whole structure.
const NoIndex = -1

// Event is one access to one data-structure instance. It carries exactly the
// five pieces of information §IV lists — time stamp (Seq), read/write (Op),
// position (Index), size at the moment of access (Size), and thread id
// (Thread) — plus the instance binding.
type Event struct {
	Seq      uint64
	Instance InstanceID
	Op       Op
	Index    int
	Size     int
	Thread   ThreadID
}

func (e Event) String() string {
	return fmt.Sprintf("#%d inst=%d %s idx=%d size=%d thr=%d",
		e.Seq, e.Instance, e.Op, e.Index, e.Size, e.Thread)
}

// Kind describes what sort of container an instance is. The use-case engine
// needs this: Insert/Delete-Front only fires for arrays, and the empirical
// study counts instances per container type.
type Kind uint8

const (
	KindUnknown Kind = iota
	KindList
	KindArray
	KindDictionary
	KindStack
	KindQueue
	KindHashSet
	KindLinkedList
	KindSortedList
)

var kindNames = [...]string{
	KindUnknown:    "Unknown",
	KindList:       "List",
	KindArray:      "Array",
	KindDictionary: "Dictionary",
	KindStack:      "Stack",
	KindQueue:      "Queue",
	KindHashSet:    "HashSet",
	KindLinkedList: "LinkedList",
	KindSortedList: "SortedList",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Instance is the registry metadata for one instrumented data structure.
// Site is the instantiation location captured with runtime.Caller, which is
// how DSspy binds use cases back to source positions (Table V shows
// class/method/position per finding).
type Instance struct {
	ID       InstanceID
	Kind     Kind
	TypeName string // e.g. "List[int]"
	Label    string // optional user label, e.g. "population"
	Site     Site
}

// Site is a source location.
type Site struct {
	File     string
	Line     int
	Function string
}

// String prints the site as the text report does, with the file's base name:
// File holds the absolute path runtime.Caller saw, which depends on where the
// program was built.
func (s Site) String() string {
	if s.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d (%s)", filepath.Base(s.File), s.Line, s.Function)
}
