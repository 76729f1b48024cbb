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
	// The collector keeps the events; Close merges them into one batch in
	// sequence order.
	col := trace.NewShardedCollector(0)
	s := trace.NewSessionWith(trace.Options{
		Recorder:       col,
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

	col.Close()
	events := col.MergedColumns()
	rep := core.New().Analyze(s, events)
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	res := rep.Instances[0]
	fmt.Printf("\nThreads observed: %d (%d writing, %d reading)\n",
		res.Shared.Threads, res.Shared.WritingThreads, res.Shared.ReadingThreads)
	fmt.Printf("Patterns (thread-aware): %d\n\n", len(res.Patterns()))

	// Per-thread lanes make the interleaved scans visible; they are drawn
	// from the run's events, which are all the shared list's.
	fmt.Print(viz.ThreadLanes(res.Profile.Instance, events, viz.ChartOptions{MaxWidth: 80, MaxHeight: 8}))
}
