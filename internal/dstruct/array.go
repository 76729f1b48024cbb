package dstruct

import (
	"fmt"

	"dsspy/internal/trace"
)

// Array is an instrumented fixed-size array. Together with List, arrays
// account for more than 75 % of all data-structure instances in the paper's
// study, and DSspy implements its automatic analysis exactly for the two.
//
// Fixed size is the defining property: growing an Array requires Resize,
// which allocates a new backing store and copies every element — the copy
// overhead the Insert/Delete-Front use case warns about. InsertAt/RemoveAt
// model "array used like a list" (shift + resize), which is what triggers
// that use case.
type Array[T comparable] struct {
	h     trace.Handle
	items []T
}

// NewArray registers an instrumented array of the given length.
func NewArray[T comparable](s *trace.Session, length int) *Array[T] {
	return newArray[T](s, length, "")
}

// NewArrayLabeled registers an instrumented array carrying a semantic label.
func NewArrayLabeled[T comparable](s *trace.Session, length int, label string) *Array[T] {
	return newArray[T](s, length, label)
}

func newArray[T comparable](s *trace.Session, length int, label string) *Array[T] {
	if length < 0 {
		panic(fmt.Sprintf("dstruct: negative array length %d", length))
	}
	a := &Array[T]{items: make([]T, length)}
	s.InitHandle(&a.h, s.Register(trace.KindArray, typeName1[T]("Array"), label, 2))
	return a
}

// ID returns the registry id of this instance.
func (a *Array[T]) ID() trace.InstanceID { return a.h.ID() }

// SetLabel attaches a semantic label to the instance.
func (a *Array[T]) SetLabel(label string) { a.h.Session().SetLabel(a.h.ID(), label) }

// Len returns the array length (no event).
func (a *Array[T]) Len() int { return len(a.items) }

// Get returns the element at i (one Read event). The sampled-out body is
// kept to the range test plus the inlined credit test and the load; the
// admitted path — Emit — lives in getSlow, off the floor. An out-of-range
// index always takes getSlow and its formatted panic, sampled out or not.
func (a *Array[T]) Get(i int) T {
	if uint(i) < uint(len(a.items)) && a.h.Drop(trace.OpRead, i) {
		return a.items[i]
	}
	return a.getSlow(i)
}

func (a *Array[T]) getSlow(i int) T {
	a.checkIndex(i)
	a.h.Emit(trace.OpRead, i, len(a.items))
	return a.items[i]
}

// Set replaces the element at i (one Write event).
func (a *Array[T]) Set(i int, v T) {
	if uint(i) < uint(len(a.items)) && a.h.Drop(trace.OpWrite, i) {
		a.items[i] = v
		return
	}
	a.setSlow(i, v)
}

func (a *Array[T]) setSlow(i int, v T) {
	a.checkIndex(i)
	a.items[i] = v
	a.h.Emit(trace.OpWrite, i, len(a.items))
}

// Fill writes v into every position (one ForAll event — Array.Fill is a
// whole-structure operation).
func (a *Array[T]) Fill(v T) {
	for i := range a.items {
		a.items[i] = v
	}
	if !a.h.Drop(trace.OpForAll, trace.NoIndex) {
		a.h.Emit(trace.OpForAll, trace.NoIndex, len(a.items))
	}
}

// IndexOf scans for v (one Search event); -1 when absent.
func (a *Array[T]) IndexOf(v T) int {
	found := -1
	for i, x := range a.items {
		if x == v {
			found = i
			break
		}
	}
	if !a.h.Drop(trace.OpSearch, found) {
		a.h.Emit(trace.OpSearch, found, len(a.items))
	}
	return found
}

// Contains reports whether v occurs (one Search event).
func (a *Array[T]) Contains(v T) bool { return a.IndexOf(v) >= 0 }

// Resize reallocates the array to the new length, copying the retained
// prefix. It emits Resize plus the Copy that makes resizing arrays
// expensive.
func (a *Array[T]) Resize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("dstruct: negative array length %d", n))
	}
	next := make([]T, n)
	copy(next, a.items)
	a.items = next
	if !a.h.Drop(trace.OpResize, trace.NoIndex) {
		a.h.Emit(trace.OpResize, trace.NoIndex, n)
	}
	if !a.h.Drop(trace.OpCopy, trace.NoIndex) {
		a.h.Emit(trace.OpCopy, trace.NoIndex, n)
	}
}

// InsertAt grows the array by one and shifts elements right of i — the
// "array used like a dynamic list" anti-pattern. Emits Insert plus the Copy
// for the shift/reallocation.
func (a *Array[T]) InsertAt(i int, v T) {
	if i < 0 || i > len(a.items) {
		panic(fmt.Sprintf("dstruct: Array.InsertAt index %d out of range [0,%d]", i, len(a.items)))
	}
	next := make([]T, len(a.items)+1)
	copy(next, a.items[:i])
	next[i] = v
	copy(next[i+1:], a.items[i:])
	a.items = next
	if !a.h.Drop(trace.OpInsert, i) {
		a.h.Emit(trace.OpInsert, i, len(a.items))
	}
	if !a.h.Drop(trace.OpCopy, trace.NoIndex) {
		a.h.Emit(trace.OpCopy, trace.NoIndex, len(a.items))
	}
}

// RemoveAt shrinks the array by one, shifting elements left. Emits Delete
// plus the Copy for the shift/reallocation.
func (a *Array[T]) RemoveAt(i int) {
	a.checkIndex(i)
	next := make([]T, len(a.items)-1)
	copy(next, a.items[:i])
	copy(next[i:], a.items[i+1:])
	a.items = next
	if !a.h.Drop(trace.OpDelete, i) {
		a.h.Emit(trace.OpDelete, i, len(a.items))
	}
	if !a.h.Drop(trace.OpCopy, trace.NoIndex) {
		a.h.Emit(trace.OpCopy, trace.NoIndex, len(a.items))
	}
}

// CopyTo copies the elements into dst (one Copy event).
func (a *Array[T]) CopyTo(dst []T) int {
	n := copy(dst, a.items)
	if !a.h.Drop(trace.OpCopy, trace.NoIndex) {
		a.h.Emit(trace.OpCopy, trace.NoIndex, len(a.items))
	}
	return n
}

// Unwrap exposes the backing slice without emitting events, for
// recommendation-applied parallel code.
func (a *Array[T]) Unwrap() []T { return a.items }

func (a *Array[T]) checkIndex(i int) {
	if i < 0 || i >= len(a.items) {
		panic(fmt.Sprintf("dstruct: Array index %d out of range [0,%d)", i, len(a.items)))
	}
}
