package trace

// Handle is a container-local emission handle: the per-instance fast path
// that lets an instrumented container decide "is this access sampled out?"
// without calling into the session at all. Each dstruct container embeds one
// by value; the steady-state sampled-out access is then
//
//	if !h.Drop(op, index) { h.Emit(op, index, size) }
//
// where Drop is fully inlined into the container method (the Makefile's
// inline-guard enforces that) and, with drop credit on the handle, costs one
// predictable branch and one counter decrement — no Session.Emit call, no
// size() computation, no gate-mutex touch, no atomics, and no per-event
// aggregate fold. Credit is granted in spans by Gate.AdmitRun, exactly like
// the producer credit cache, and settled at the same sync points, so
// conservation stays exact.
//
// Dropped-span detail is subsampled. The drop path must fit the inliner's
// budget next to a real container body, which rules out folding op counts
// and the index envelope on every dropped event. Instead the handle consumes
// a dropped gate span in detail sub-spans of detailEvery events: the events
// inside a sub-span are only counted (AggRecord.N stays exact, by credit
// arithmetic), and the one event at each sub-span boundary takes the slow
// path and folds full detail — op, index envelope, direction, size — into
// the lazy aggregate. A dropped span therefore contributes every Nth access
// as its detail fingerprint; the producer credit cache (producer.go), which
// has no inlining constraint, still folds every denied event.
//
// A Handle inherits the container's concurrency contract: the containers are
// documented as not safe for concurrent mutation, and the handle's plain
// credit words rely on that. Sessions shared across goroutines are still fine
// — distinct containers own distinct handles, and everything the handle
// touches on the session (sequencer, recorder, gate) is concurrency-safe.
type Handle struct {
	// drop is the remaining fast-drop credit in the current detail
	// sub-span: the word the inlined fast path tests and decrements. Zero
	// when the instance is admitted (or the session ungated), so Drop falls
	// through to Emit in one branch.
	drop int32
	// admit is the remaining admitted credit: Emit delivers without
	// consulting the gate while it lasts. Ungated sessions run on a huge
	// admitted span that renews on exhaustion.
	admit int32
	id    InstanceID
	// kept counts admitted deliveries not yet settled to the gate.
	kept uint32
	// sub is the size of the current detail sub-span; sub - drop is the
	// fast-dropped count not yet settled into the aggregate.
	sub int32
	// dropLeft is the dropped-span credit beyond the current sub-span.
	dropLeft int32
	s        *Session
	// a is the lazy aggregate dropped spans settle into (aggregate.go).
	a agg
}

// detailEvery is the detail-subsampling period inside dropped spans: one of
// every detailEvery dropped events takes the slow path and folds op/index
// detail into the aggregate. The boundary trip costs one Emit call plus the
// fold, ~20ns amortized over the sub-span to well under the fast path's own
// cost; smaller periods buy detail density, larger ones shave the last
// fraction of a nanosecond off the floor.
const detailEvery = 64

// InitHandle binds h to the session for instance id and registers it for
// FlushHandles. Containers call it once from their constructor.
func (s *Session) InitHandle(h *Handle, id InstanceID) {
	h.s = s
	h.id = id
	h.a.reset()
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
}

// ID returns the instance the handle emits for.
func (h *Handle) ID() InstanceID { return h.id }

// Session returns the session the handle was initialized with.
func (h *Handle) Session() *Session { return h.s }

// Drop is the sampled-out fast path: it reports whether the access is
// covered by fast-drop credit. Container methods call it before computing
// anything for Emit — on a backed-off instance the whole instrumentation
// cost is this inlined branch and decrement. The event is settled into the
// aggregate later, at the sub-span boundary or a sync point, by credit
// arithmetic. It must stay within the compiler's inlining budget
// (make inline-guard).
func (h *Handle) Drop(op Op, index int) bool {
	d := h.drop
	if d <= 0 {
		return false
	}
	h.drop = d - 1
	return true
}

// Emit records one access event. With admitted credit on the handle it
// delivers straight to the bound producer or recorder — the gate is consulted
// only at span boundaries (refresh), which also settles the previous span and
// flushes the aggregate.
func (h *Handle) Emit(op Op, index, size int) {
	if a := h.admit; a > 0 {
		h.admit = a - 1
		h.kept++
		h.deliver(op, index, size)
		return
	}
	h.refresh(op, index, size)
}

// deliver materializes one admitted event, mirroring Session.Emit's ungated
// delivery exactly (bound-producer routing, per-event thread capture) so
// full-fidelity reports stay byte-identical to the per-event API.
func (h *Handle) deliver(op Op, index, size int) {
	s := h.s
	if p := s.bound; p != nil {
		p.append(h.id, op, index, size, p.thread)
		return
	}
	var thr ThreadID
	if s.captureThreads {
		thr = CurrentThreadID()
	}
	s.rec.Record(Event{
		Seq:      s.seq.Add(1),
		Instance: h.id,
		Op:       op,
		Index:    index,
		Size:     size,
		Thread:   thr,
	})
}

// carve moves the next detail sub-span of dropped credit onto the fast-path
// word. The event at the sub-span boundary has already been disposed of
// (folded as the detail sample) by the caller.
func (h *Handle) carve() {
	sub := h.dropLeft
	if sub > detailEvery {
		sub = detailEvery
	}
	h.dropLeft -= sub
	h.drop = sub
	h.sub = sub
}

// refresh runs when Emit finds no admitted credit: at detail sub-span
// boundaries inside a dropped span, and at true gate-span boundaries. The
// sub-span case settles the fast-dropped count into the aggregate, folds the
// boundary event as the span's detail sample, and carves the next sub-span —
// the gate is not consulted; its grant still stands. The gate-span case
// settles the expiring span (kept counts and the aggregate), asks the gate
// for the next grant, and disposes of the event that crossed the boundary.
// The caller-computed size is recorded on the aggregate here — the only
// place the drop path learns sizes.
func (h *Handle) refresh(op Op, index, size int) {
	if h.sub > 0 || h.dropLeft > 0 {
		// Inside a dropped gate span. The sub-span is fully consumed
		// (Drop ran it to zero before falling through to Emit).
		h.a.n += uint64(h.sub)
		h.sub = 0
		if h.dropLeft > 0 {
			h.a.fold(op, index)
			h.a.size = size
			h.dropLeft--
			h.carve()
			return
		}
		// Dropped span fully consumed: fall through to the gate with
		// this event pending its next verdict.
	}
	g := h.s.gate
	if g == nil {
		// Ungated: renew a huge admitted span so steady state is the one
		// branch in Emit. The span is cosmetic — nothing is settled.
		h.admit = 1<<30 - 1
		h.deliver(op, index, size)
		return
	}
	if h.kept > 0 {
		g.Observe(h.id, uint64(h.kept), 0)
		h.kept = 0
	}
	var thr ThreadID
	if h.s.captureThreads {
		thr = CurrentThreadID()
	}
	admit, span := g.AdmitRun(h.id, thr)
	if span < 1 {
		span = 1
	}
	if admit {
		// The dropped streak (if any) ended: flush its aggregate before
		// the admitted event reaches the recorder. Consecutive denied
		// spans accumulate into one aggregate instead — that keeps the
		// direction fingerprint alive when each span contributes few
		// detail samples, and batches settlement traffic.
		if h.a.n > 0 {
			h.s.flushAggregate(h.a.take(h.id))
		}
		h.admit = int32(span) - 1
		h.kept++
		h.deliver(op, index, size)
		return
	}
	// Denied: this event is the span's first detail sample; the rest of
	// the span is consumed through detail sub-spans.
	h.a.fold(op, index)
	h.a.size = size
	h.dropLeft = int32(span) - 1
	h.carve()
}

// settle reports the handle's consumed-but-unsettled state to the gate: kept
// counts from admitted spans, the fast-dropped count of a partially consumed
// sub-span, and the aggregate covering dropped spans. Conservation counters
// only ever move here and in the per-event paths, so the identity is exact
// at every sync point.
func (h *Handle) settle() {
	g := h.s.gate
	if g == nil {
		return
	}
	if h.kept > 0 {
		g.Observe(h.id, uint64(h.kept), 0)
		h.kept = 0
	}
	if h.sub > 0 {
		h.a.n += uint64(h.sub - h.drop)
		h.sub, h.drop = 0, 0
	}
	if h.a.n > 0 {
		h.s.flushAggregate(h.a.take(h.id))
	}
}

// flush voids the handle's outstanding credit and settles everything
// consumed. Called from Session.FlushHandles at sync points; the voided
// grant simply moves the gate's schedule position on, exactly like the
// producer credit cache's settleGate.
func (h *Handle) flush() {
	h.dropLeft = 0
	h.admit = 0
	h.settle()
	h.drop = 0
}

// FlushHandles settles every container handle bound to the session: kept
// counts and aggregates reach the gate and the aggregate sink, and all
// outstanding credit is voided. Call at sync points where another goroutine
// is about to read conservation counters or the final report — the streaming
// analyzer's Close does, after the workload has quiesced. It must not run
// concurrently with container mutation (the handles' credit words are
// container-local state).
func (s *Session) FlushHandles() {
	s.mu.RLock()
	hs := s.handles
	s.mu.RUnlock()
	for _, h := range hs {
		h.flush()
	}
}
