// Threads demonstrates multithreaded profiling: the paper records a thread
// id with every access event so single- and multithreaded code can both be
// analyzed (§IV). Here two scanner goroutines and one producer share a
// list; with goroutine-id capture enabled, DSspy still sees each scanner's
// sequential read patterns (the merged stream is a zigzag), detects the
// Frequent-Long-Read, and flags the contention.
//
//	go run ./examples/threads
package main

import (
	"fmt"
	"os"
	"sync"

	"dsspy"
	"dsspy/internal/core"
	"dsspy/internal/trace"
	"dsspy/internal/viz"
)

func main() {
	rec := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{
		Recorder:       rec,
		CaptureSites:   true,
		CaptureThreads: true, // goroutine ids on every event
	})

	shared := dsspy.NewListLabeled[int](s, "shared series")
	for i := 0; i < 64; i++ {
		shared.Add(i * i)
	}

	// Two concurrent scanners, each running full passes over the list.
	// A mutex keeps the container itself safe; the interleaving of their
	// events is what the analysis has to untangle.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for scan := 0; scan < 8; scan++ {
				sum := 0
				for i := 0; i < 64; i++ {
					mu.Lock()
					sum += shared.Get(i)
					mu.Unlock()
				}
				_ = sum
			}
		}()
	}
	wg.Wait()

	rep := core.New().Analyze(s, rec.Events())
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	res := rep.Instances[0]
	fmt.Printf("\nThreads observed: %d (%d writing, %d reading)\n",
		res.Shared.Threads, res.Shared.WritingThreads, res.Shared.ReadingThreads)
	fmt.Printf("Patterns (thread-aware): %d\n\n", len(res.Patterns()))

	// Per-thread lanes make the interleaved scans visible; Analyze attached
	// the per-event profile they are drawn from.
	fmt.Print(viz.ThreadLanes(res.Profile, viz.ChartOptions{MaxWidth: 80, MaxHeight: 8}))
}
