package dstruct

import (
	"fmt"
	"sort"

	"dsspy/internal/trace"
)

// List is an instrumented dynamic array modeled on System.Collections.
// Generic.List<T>: a growable container with positional access, the most
// frequently used dynamic data structure in the paper's empirical study
// (65.05 % of all instances). Every interface method emits one access event.
//
// A List is not safe for concurrent mutation; like its .NET counterpart it
// expects external synchronization. Concurrent profiling of distinct lists
// is safe because sessions are concurrency-safe.
type List[T comparable] struct {
	h       trace.Handle
	items   []T
	initCap int
}

// defaultCapacity mirrors .NET's initial List capacity after the first Add.
const defaultCapacity = 4

// NewList registers an empty instrumented list with the session.
func NewList[T comparable](s *trace.Session) *List[T] {
	return newList[T](s, 0, "")
}

// NewListCap registers an instrumented list with a preallocated capacity,
// like `new List<T>(capacity)`. The event Size reflects this capacity
// immediately, matching the Figure 2 discussion.
func NewListCap[T comparable](s *trace.Session, capacity int) *List[T] {
	return newList[T](s, capacity, "")
}

// NewListLabeled registers an instrumented list carrying a semantic label
// that appears in reports.
func NewListLabeled[T comparable](s *trace.Session, label string) *List[T] {
	return newList[T](s, 0, label)
}

func newList[T comparable](s *trace.Session, capacity int, label string) *List[T] {
	l := &List[T]{
		items:   make([]T, 0, capacity),
		initCap: capacity,
	}
	s.InitHandle(&l.h, s.Register(trace.KindList, typeName1[T]("List"), label, 2))
	return l
}

// ID returns the registry id of this instance.
func (l *List[T]) ID() trace.InstanceID { return l.h.ID() }

// SetLabel attaches a semantic label to the instance.
func (l *List[T]) SetLabel(label string) { l.h.Session().SetLabel(l.h.ID(), label) }

// size reports the figure the paper charts as the grey background bar. The
// two figures pin it down: Figure 2 shows a list constructed with capacity
// 10 whose size stays 10 while Add fills it, and Figure 3 shows the size of
// a default-constructed list tracking the element count so that insertions
// overlap the size line. Both hold for max(count, initial capacity).
func (l *List[T]) size() int {
	if len(l.items) > l.initCap {
		return len(l.items)
	}
	return l.initCap
}

// Len returns the number of elements. Len itself is not an element access
// and emits no event, like Count in .NET.
func (l *List[T]) Len() int { return len(l.items) }

// Cap returns the current capacity.
func (l *List[T]) Cap() int { return cap(l.items) }

// Add appends v, emitting an Insert event at the back.
func (l *List[T]) Add(v T) {
	l.items = append(l.items, v)
	if l.h.Drop(trace.OpInsert, len(l.items)-1) {
		return
	}
	l.h.Emit(trace.OpInsert, len(l.items)-1, l.size())
}

// AddRange appends all values, one Insert event each, modeling the
// element-wise insertion profile of AddRange.
func (l *List[T]) AddRange(vs []T) {
	for _, v := range vs {
		l.Add(v)
	}
}

// Insert places v at position i, shifting subsequent elements right.
// It panics if i is out of range [0, Len()].
func (l *List[T]) Insert(i int, v T) {
	if i < 0 || i > len(l.items) {
		panic(fmt.Sprintf("dstruct: List.Insert index %d out of range [0,%d]", i, len(l.items)))
	}
	var zero T
	l.items = append(l.items, zero)
	copy(l.items[i+1:], l.items[i:])
	l.items[i] = v
	if !l.h.Drop(trace.OpInsert, i) {
		l.h.Emit(trace.OpInsert, i, l.size())
	}
}

// Get returns the element at i, emitting a Read event. It panics on
// out-of-range indexes, like the C# indexer throws. The sampled-out body is
// kept to the range test plus the inlined credit test and the load;
// everything the admitted path needs — the size figure, the Emit — lives in
// getSlow, off the floor. An out-of-range index always takes getSlow, so it
// raises the same formatted panic whether or not the access was sampled out.
func (l *List[T]) Get(i int) T {
	if uint(i) < uint(len(l.items)) && l.h.Drop(trace.OpRead, i) {
		return l.items[i]
	}
	return l.getSlow(i)
}

func (l *List[T]) getSlow(i int) T {
	l.checkIndex(i)
	l.h.Emit(trace.OpRead, i, l.size())
	return l.items[i]
}

// Set replaces the element at i, emitting a Write event.
func (l *List[T]) Set(i int, v T) {
	if uint(i) < uint(len(l.items)) && l.h.Drop(trace.OpWrite, i) {
		l.items[i] = v
		return
	}
	l.setSlow(i, v)
}

func (l *List[T]) setSlow(i int, v T) {
	l.checkIndex(i)
	l.items[i] = v
	l.h.Emit(trace.OpWrite, i, l.size())
}

// RemoveAt deletes the element at i, emitting a Delete event.
func (l *List[T]) RemoveAt(i int) {
	l.checkIndex(i)
	copy(l.items[i:], l.items[i+1:])
	l.items = l.items[:len(l.items)-1]
	if !l.h.Drop(trace.OpDelete, i) {
		l.h.Emit(trace.OpDelete, i, l.size())
	}
}

// Remove deletes the first occurrence of v. The scan is one compound Search
// event; a successful removal additionally emits the Delete. It reports
// whether an element was removed.
func (l *List[T]) Remove(v T) bool {
	i := l.indexOf(v)
	if !l.h.Drop(trace.OpSearch, i) {
		l.h.Emit(trace.OpSearch, i, l.size())
	}
	if i < 0 {
		return false
	}
	copy(l.items[i:], l.items[i+1:])
	l.items = l.items[:len(l.items)-1]
	if !l.h.Drop(trace.OpDelete, i) {
		l.h.Emit(trace.OpDelete, i, l.size())
	}
	return true
}

// IndexOf returns the position of the first occurrence of v, or -1.
// The scan is one compound Search event.
func (l *List[T]) IndexOf(v T) int {
	i := l.indexOf(v)
	if !l.h.Drop(trace.OpSearch, i) {
		l.h.Emit(trace.OpSearch, i, l.size())
	}
	return i
}

// Contains reports whether v occurs in the list (one Search event).
func (l *List[T]) Contains(v T) bool {
	i := l.indexOf(v)
	if !l.h.Drop(trace.OpSearch, i) {
		l.h.Emit(trace.OpSearch, i, l.size())
	}
	return i >= 0
}

func (l *List[T]) indexOf(v T) int {
	for i, x := range l.items {
		if x == v {
			return i
		}
	}
	return -1
}

// Clear removes all elements (one Clear event). Capacity is retained,
// as in .NET.
func (l *List[T]) Clear() {
	l.items = l.items[:0]
	if !l.h.Drop(trace.OpClear, trace.NoIndex) {
		l.h.Emit(trace.OpClear, trace.NoIndex, l.size())
	}
}

// Sort orders the elements by less (one Sort event).
func (l *List[T]) Sort(less func(a, b T) bool) {
	sort.SliceStable(l.items, func(i, j int) bool { return less(l.items[i], l.items[j]) })
	if !l.h.Drop(trace.OpSort, trace.NoIndex) {
		l.h.Emit(trace.OpSort, trace.NoIndex, l.size())
	}
}

// Reverse reverses the element order in place (one Reverse event).
func (l *List[T]) Reverse() {
	for i, j := 0, len(l.items)-1; i < j; i, j = i+1, j-1 {
		l.items[i], l.items[j] = l.items[j], l.items[i]
	}
	if !l.h.Drop(trace.OpReverse, trace.NoIndex) {
		l.h.Emit(trace.OpReverse, trace.NoIndex, l.size())
	}
}

// CopyTo copies the elements into dst and returns the number copied
// (one Copy event).
func (l *List[T]) CopyTo(dst []T) int {
	n := copy(dst, l.items)
	if !l.h.Drop(trace.OpCopy, trace.NoIndex) {
		l.h.Emit(trace.OpCopy, trace.NoIndex, l.size())
	}
	return n
}

// ToSlice returns a fresh copy of the elements (one Copy event).
func (l *List[T]) ToSlice() []T {
	out := make([]T, len(l.items))
	copy(out, l.items)
	if !l.h.Drop(trace.OpCopy, trace.NoIndex) {
		l.h.Emit(trace.OpCopy, trace.NoIndex, l.size())
	}
	return out
}

// ForEach applies f to every element. The whole traversal is one compound
// ForAll event; iterating by index with Get instead yields the per-element
// Read-Forward profile the paper's figures show.
func (l *List[T]) ForEach(f func(v T)) {
	if !l.h.Drop(trace.OpForAll, trace.NoIndex) {
		l.h.Emit(trace.OpForAll, trace.NoIndex, l.size())
	}
	for _, v := range l.items {
		f(v)
	}
}

// Enumerate walks the elements front to end, emitting one Read event per
// visited element — the profile a C# foreach produces through the list's
// enumerator, and what makes enumeration loops visible as Read-Forward
// patterns. f returning false stops the walk early (like breaking out of a
// foreach).
func (l *List[T]) Enumerate(f func(i int, v T) bool) {
	for i, v := range l.items {
		if !l.h.Drop(trace.OpRead, i) {
			l.h.Emit(trace.OpRead, i, l.size())
		}
		if !f(i, v) {
			return
		}
	}
}

// Unwrap exposes the backing slice without emitting events. It exists for
// the parallelized implementations that a recommended action produces: after
// an engineer follows the recommendation, the hot loop operates on raw data.
func (l *List[T]) Unwrap() []T { return l.items }

func (l *List[T]) checkIndex(i int) {
	if i < 0 || i >= len(l.items) {
		panic(fmt.Sprintf("dstruct: List index %d out of range [0,%d)", i, len(l.items)))
	}
}
