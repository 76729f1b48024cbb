package trace

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Goroutine-id capture. Go deliberately hides goroutine identity, but the
// paper's event model requires a thread id per event so that interleaved
// profiles from concurrent code can be separated. We parse the header of
// runtime.Stack ("goroutine 123 [running]:"), which is stable across Go
// releases, and cache the resulting runtime-id → dense-ThreadID mapping in a
// sharded table: lookups are a single atomic pointer load plus a read of an
// immutable map, so after a goroutine's first event its id costs no locks at
// all. Only the first sighting of a goroutine takes a (per-shard) mutex to
// publish a copy-on-write successor map. The runtime.Stack dump itself is
// still paid on every CurrentThreadID call — that is what Session.Bind
// amortizes away by capturing the id once per goroutine and reusing it for
// every event the Producer batches.
//
// Picking a capture strategy:
//
//   - Session.Emit (CaptureThreads on) — zero API friction; pays one
//     runtime.Stack dump plus a lock-free table hit per event.
//   - Session.Bind + Producer.Emit — one runtime.Stack dump per goroutine,
//     then no id work at all; use for hot loops and dedicated workers. The
//     Producer must stay on the goroutine that created it.
//   - ExplicitThreadID + Session.EmitAs — no runtime.Stack ever; use when the
//     workload already threads worker identity through its own code.
//
// The dense ThreadIDs are small integers so downstream analysis can use them
// as slice indexes.

// goidShards is the shard count of the goroutine-id table. Power of two so
// the modulo compiles to a mask; 64 shards keep first-sighting contention
// negligible even for thousands of short-lived goroutines.
const goidShards = 64

// goidShard maps sparse runtime goroutine ids to dense ThreadIDs for
// gid % goidShards == this shard's index. Readers load the map pointer
// atomically and read the (immutable) map without locking; writers clone
// the map under mu and publish the successor atomically.
type goidShard struct {
	mu sync.Mutex
	m  atomic.Pointer[map[uint64]ThreadID]
	_  [40]byte // pad to a cache line so shards don't false-share
}

var goidTable [goidShards]goidShard

// goidNext allocates dense ThreadIDs across all shards.
var goidNext atomic.Uint32

var goidBufPool = sync.Pool{
	New: func() any { b := make([]byte, 64); return &b },
}

// CurrentThreadID returns a small dense id for the calling goroutine.
// Distinct concurrently-live goroutines receive distinct ids; the same
// goroutine always receives the same id within a process. After a
// goroutine's first call the lookup is lock-free (one atomic load and one
// read of an immutable map); the first call publishes the mapping under the
// shard's mutex.
func CurrentThreadID() ThreadID {
	return lookupThreadID(runtimeGoroutineID())
}

// lookupThreadID resolves (or assigns) the dense ThreadID for a runtime
// goroutine id.
func lookupThreadID(gid uint64) ThreadID {
	sh := &goidTable[gid%goidShards]
	if m := sh.m.Load(); m != nil {
		if id, ok := (*m)[gid]; ok {
			return id
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check: another goroutine with the same gid%shards may have raced us
	// here, and the same goroutine can re-enter after losing the fast path.
	old := sh.m.Load()
	if old != nil {
		if id, ok := (*old)[gid]; ok {
			return id
		}
	}
	id := ThreadID(goidNext.Add(1))
	var next map[uint64]ThreadID
	if old == nil {
		next = make(map[uint64]ThreadID, 4)
	} else {
		next = make(map[uint64]ThreadID, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	next[gid] = id
	sh.m.Store(&next)
	return id
}

// runtimeGoroutineID parses the current goroutine's runtime id from its
// stack header.
func runtimeGoroutineID() uint64 {
	bp := goidBufPool.Get().(*[]byte)
	defer goidBufPool.Put(bp)
	b := (*bp)[:cap(*bp)]
	n := runtime.Stack(b, false)
	b = b[:n]
	// Header: "goroutine 123 [running]:"
	const prefix = "goroutine "
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return 0
	}
	b = b[len(prefix):]
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// threadCounter supports ExplicitThreadID, the cheap alternative to stack
// parsing for workloads that create their own workers and can thread an id
// through explicitly.
var threadCounter atomic.Uint32

// ExplicitThreadID allocates a fresh ThreadID from a reserved region
// (high bit set) of the dense space used by CurrentThreadID consumers.
// Workers that want to avoid runtime.Stack entirely can allocate one id up
// front and emit events through Session.EmitAs; workers that only want to
// avoid per-event capture should prefer Session.Bind, which keeps the
// dense-id space and needs no explicit plumbing.
func ExplicitThreadID() ThreadID {
	return ThreadID(1<<31 | threadCounter.Add(1))
}

// EmitAs records an event like Session.Emit but with a caller-supplied
// thread id, bypassing goroutine-id capture entirely. Under a bound sole
// producer (BindDefault) the event joins the producer's batch with its own
// thread id, so it is stamped in program order among the producer's
// buffered events, as with per-event delivery.
func (s *Session) EmitAs(id InstanceID, op Op, index, size int, thread ThreadID) {
	if g := s.gate; g != nil && !g.Admit(id, thread) {
		return
	}
	if p := s.bound; p != nil {
		p.append(id, op, index, size, thread)
		return
	}
	s.rec.Record(Event{
		Seq:      s.seq.Add(1),
		Instance: id,
		Op:       op,
		Index:    index,
		Size:     size,
		Thread:   thread,
	})
}
