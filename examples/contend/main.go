// Contend demonstrates the concurrency-aware analysis end to end on real
// goroutines: four workers hammer a shared hit-counter dictionary while
// three producers feed a job queue drained by one consumer. DSspy's
// contention layer sees the interleaving (episodes, reader/writer phases,
// per-thread windows), the use-case engine turns it into Contended-Map and
// MPSC-Queue findings, and the advisor recommends the concurrency-safe
// containers from package par — then the demo measures the recommended
// queue against the original to show the win is real.
//
//	go run ./examples/contend
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dsspy"
	"dsspy/internal/advisor"
	"dsspy/internal/core"
	"dsspy/internal/par"
	"dsspy/internal/trace"
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

	counters := dsspy.NewDictionary[string, int](s)
	queue := dsspy.NewListLabeled[int](s, "job queue")

	// Four workers bump shared counters; a mutex keeps the container safe,
	// the contention is what the analysis should see. Gosched after each
	// access keeps the goroutines interleaving even on one core.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%02d", (w*7+i)%16)
				mu.Lock()
				n, _ := counters.Get(key)
				counters.Put(key, n+1)
				mu.Unlock()
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()

	// Three producers append jobs; one consumer pops from the front.
	var qmu sync.Mutex
	var pwg, cwg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < 3; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < 200; i++ {
				qmu.Lock()
				queue.Add(p*1000 + i)
				qmu.Unlock()
				runtime.Gosched()
			}
		}(p)
	}
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			qmu.Lock()
			if queue.Len() > 0 {
				queue.Get(0)
				queue.RemoveAt(0)
				qmu.Unlock()
				runtime.Gosched()
				continue
			}
			qmu.Unlock()
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	pwg.Wait()
	close(done)
	cwg.Wait()

	col.Close()
	events := col.MergedColumns()
	rep := core.New().Analyze(s, events)
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	cores := runtime.NumCPU()
	if err := advisor.Write(os.Stdout, advisor.Advise(rep, cores), cores); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Follow the MPSC-queue recommendation and measure it: the original
	// slice FIFO pays O(n) per front removal once a backlog builds; the
	// recommended bounded ring pays O(1).
	const jobs = 60_000
	fifo := measure(func() {
		q := make([]int, 0, jobs)
		for i := 0; i < jobs; i++ {
			q = append(q, i)
			if len(q) > jobs/2 { // steady backlog
				q = q[:copy(q, q[1:])]
			}
		}
		for len(q) > 0 {
			q = q[:copy(q, q[1:])]
		}
	})
	ring := measure(func() {
		r := par.NewMPSCRing[int](4096)
		var cg sync.WaitGroup
		cg.Add(1)
		go func() {
			defer cg.Done()
			seen := 0
			for seen < jobs {
				if _, ok := r.TryDequeue(); ok {
					seen++
					continue
				}
				runtime.Gosched()
			}
		}()
		for i := 0; i < jobs; i++ {
			for !r.TryEnqueue(i) {
				runtime.Gosched()
			}
		}
		cg.Wait()
	})
	fmt.Printf("\nApplied recommendation (job queue, %d jobs):\n", jobs)
	fmt.Printf("  slice FIFO (original): %v\n", fifo)
	fmt.Printf("  par.MPSCRing (advised): %v  (%.1fx)\n", ring, float64(fifo)/float64(ring))
}

func measure(fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
