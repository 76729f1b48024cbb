package main

import (
	"runtime"
	"time"
)

// Host calibration. This host's speed drifts by 10-15% from one minute to
// the next while no code changes, and that drift would swamp a 10%
// regression bound. The benchmark therefore times a fixed kernel of its own
// between measured iterations and reports wall-clock metrics relative to it:
//
//	h = median kernel time of this run / calibRefMS
//
// Times are divided by h and rates multiplied by h; the raw figures are
// printed as host.* layer metrics. The kernel lives in the benchmark, not in
// the program, so no change under test can alter it.
//
// The drift hits memory-bound code far harder than compute-bound code (a
// pure arithmetic loop moves a few percent when a slice-and-map loop moves
// 60%), and the workloads sit in between. A kernel of either kind alone
// over- or under-corrects; one that spends about half its time in dependent
// integer arithmetic and half in the plain twins' operations — slice append
// and scan, map insert and lookup, small allocations — tracked all three
// workload kinds to within 5-7% over eight runs each, against 12-15% raw.

// calibRefMS is the median kernel time measured at the commit that defined
// this benchmark (2-vCPU x86-64 container, Go 1.24). Keep it fixed: moving
// it rescales every host-normalised metric.
const calibRefMS = 35.0

// calibEvery is the longest a measured phase runs between two kernel runs.
const calibEvery = 250 * time.Millisecond

// The kernel's slice and map are reused from run to run: growing them
// afresh each time makes the kernel's timing depend on where the garbage
// collector's cycle happens to fall, which is heap state, not host speed.
// Only the linked nodes are allocated anew, few enough to rarely start a
// cycle.
var (
	calibSlice []int
	calibMap   map[int]int
	calibSink  uint64
)

type calibNode struct {
	next *calibNode
	v    int
}

// calibKernel runs the fixed operation mix once (about 32 ms here).
func calibKernel() {
	if calibMap == nil {
		calibMap = make(map[int]int)
	}
	acc := uint64(1)
	for i := 0; i < 12_000_000; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	s := calibSlice[:0]
	for i := 0; i < 1_000_000; i++ {
		s = append(s, i^i>>3)
	}
	calibSlice = s
	for r := 0; r < 4; r++ {
		for _, v := range s {
			acc += uint64(v)
		}
	}
	clear(calibMap)
	for i := 0; i < 120_000; i++ {
		calibMap[i*7919] = i
	}
	for i := 0; i < 360_000; i++ {
		acc += uint64(calibMap[i*7919/2])
	}
	var head *calibNode
	for i := 0; i < 8_000; i++ {
		head = &calibNode{head, i}
	}
	for p := head; p != nil; p = p.next {
		acc += uint64(p.v)
	}
	calibSink += acc
}

// releaseCalib drops the kernel's reused buffers, so a live-heap reading
// counts the workload alone.
func releaseCalib() { calibSlice, calibMap = nil, nil }

// calibrator runs the kernel between measured iterations and keeps the
// timings.
type calibrator struct {
	tr      *tracer
	samples []float64 // ms
	last    time.Time
	// allocBytes is what one kernel run allocates, measured once on a
	// quiet heap so workloads that count allocation across a whole phase
	// can subtract the kernel's share.
	allocBytes uint64
}

func newCalibrator(tr *tracer) *calibrator {
	c := &calibrator{tr: tr}
	calibKernel() // sizes the reused buffers
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	calibKernel()
	runtime.ReadMemStats(&b)
	c.allocBytes = b.TotalAlloc - a.TotalAlloc
	return c
}

// run times the kernel once.
func (c *calibrator) run() {
	runtime.GC()
	start := time.Now()
	calibKernel()
	d := time.Since(start)
	c.tr.add("host.calib", laneMain, 0, start, d, nil)
	c.samples = append(c.samples, ms(d))
	c.last = time.Now()
}

// maybe runs the kernel when calibEvery has passed since the last run.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.run()
	}
}

// factor is h: this run's median kernel time over the reference.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calibRefMS
}
