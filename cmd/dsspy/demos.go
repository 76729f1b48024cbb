package main

import (
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// The -demo workloads live in a file of their own: a report prints each
// instance's allocation site as file:line, so an edit elsewhere in the
// command leaves the demos' reports unchanged.
var demos = map[string]func(*trace.Session){
	"figure2": demoFigure2,
	"figure3": demoFigure3,
	"queue":   demoQueue,
	"stack":   demoStack,
}

func demoFigure2(s *trace.Session) {
	l := dstruct.NewListCap[int](s, 10)
	for i := 0; i < 10; i++ {
		l.Add(i)
	}
	for i := 9; i >= 0; i-- {
		l.Get(i)
	}
}

func demoFigure3(s *trace.Session) {
	l := dstruct.NewListLabeled[int](s, "producer/scanner")
	for c := 0; c < 12; c++ {
		for i := 0; i < 150; i++ {
			l.Add(i)
		}
		for i := 0; i < l.Len(); i++ {
			l.Get(i)
		}
		l.Clear()
	}
}

func demoQueue(s *trace.Session) {
	l := dstruct.NewListLabeled[int](s, "hand-rolled FIFO")
	for c := 0; c < 20; c++ {
		for i := 0; i < 10; i++ {
			l.Add(i)
		}
		for i := 0; i < 10; i++ {
			l.RemoveAt(0)
		}
	}
}

func demoStack(s *trace.Session) {
	l := dstruct.NewListLabeled[int](s, "hand-rolled LIFO")
	for c := 0; c < 20; c++ {
		for i := 0; i < 10; i++ {
			l.Add(i)
		}
		for i := 0; i < 10; i++ {
			l.RemoveAt(l.Len() - 1)
		}
	}
}
