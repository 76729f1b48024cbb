package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"
)

// TASKPROF-style lazy aggregation (DESIGN.md §16). A sampled-out access is
// not merely discarded: the handle (or producer credit slot) that dropped it
// folds it into a constant-size per-instance aggregate — per-op counts, the
// index envelope, a monotonic-direction fingerprint, and the last observed
// size — all in producer-local storage. The aggregate is flushed at the same
// sync points that settle gate credit (grant refresh, Flush, Close,
// FlushHandles), where it
//
//   - settles its event count with the gate, extending the conservation
//     identity to observed == folded + aggregated + sampled_out;
//   - reaches the analyzer through the session's AggregateSink (or, across
//     processes, as a v3 aggregate frame — see the codec below);
//   - lets the sampling controller tighten the detection bound: an
//     aggregate-covered access pins its op, index envelope and direction,
//     so it is weighted far below a blind drop.

// AggRecord is one flushed per-instance aggregate: the compact summary of a
// span of sampled-out accesses. All counters are exact — the fold path counts
// every dropped event — which is what lets the conservation identity stay
// exact at sync points even though no event was materialized.
type AggRecord struct {
	Instance InstanceID
	// N is the number of sampled-out accesses folded into this record.
	N uint64
	// Ops counts folded accesses per access type.
	Ops [numOps]uint32
	// Indexed counts the folded accesses that carried a real position
	// (Index >= 0); Min/Max bound those positions.
	Indexed  uint64
	MinIndex int
	MaxIndex int
	// Fwd/Back count indexed accesses that expanded the index envelope
	// upward/downward — the monotonic-direction fingerprint. A forward scan
	// raises MaxIndex on every step (Fwd≈Indexed), a backward scan lowers
	// MinIndex on every step (Back≈Indexed), and random access expands the
	// envelope only logarithmically, so both stay small relative to Indexed.
	Fwd, Back uint64
	// LastIndex is the position of the most recent indexed access.
	LastIndex int
	// LastSize is the container size at the grant boundary nearest the folded
	// span (the fast path never computes size; it is sampled at refresh).
	LastSize int
}

// Merge folds o into r (same instance). Used by reducers accumulating flushed
// records; order-insensitive except for Last*, which keep the newest record's
// values.
func (r *AggRecord) Merge(o AggRecord) {
	if o.N == 0 {
		return
	}
	if r.N == 0 {
		*r = o
		return
	}
	r.N += o.N
	for i := range r.Ops {
		r.Ops[i] += o.Ops[i]
	}
	if o.Indexed > 0 {
		if r.Indexed == 0 || o.MinIndex < r.MinIndex {
			r.MinIndex = o.MinIndex
		}
		if r.Indexed == 0 || o.MaxIndex > r.MaxIndex {
			r.MaxIndex = o.MaxIndex
		}
		r.Indexed += o.Indexed
		r.LastIndex = o.LastIndex
	}
	r.Fwd += o.Fwd
	r.Back += o.Back
	r.LastSize = o.LastSize
}

// Direction renders the monotonic-direction fingerprint the way reports print
// it: "forward" / "backward" when ≥90% of the indexed steps agree, "mixed"
// otherwise, "" when nothing was indexed.
func (r *AggRecord) Direction() string {
	steps := r.Fwd + r.Back
	if steps == 0 {
		return ""
	}
	switch {
	case r.Fwd*10 >= steps*9:
		return "forward"
	case r.Back*10 >= steps*9:
		return "backward"
	default:
		return "mixed"
	}
}

// aggOpMask folds the Op into agg's over-sized op array: 16 slots for 12 ops
// lets the fast path index with a mask — no compare, no branch, no bounds
// check — while slots numOps..15 stay provably zero (all Op constants are
// < numOps).
const aggOpMask = 15

// agg is the producer-local fold state behind an AggRecord: the fields the
// drop fast path updates. It is deliberately flat scalar state — no maps, no
// pointers — so folding is a handful of L1 stores, small enough for fold to
// inline into Handle.Drop inside the compiler's budget (make inline-guard).
//
// An agg must be reset() before first use: the envelope sentinels
// (minIdx=MaxInt, maxIdx=-1) are what let fold update min/max with two
// unconditional comparisons instead of a first-event branch. The first
// indexed fold therefore bumps both fwd and back once; take() subtracts the
// sentinel step so flushed records are exact.
type agg struct {
	n       uint64
	ops     [aggOpMask + 1]uint32
	indexed uint64
	minIdx  int
	maxIdx  int
	lastIdx int
	fwd     uint64
	back    uint64
	size    int
}

// reset restores the sentinel state. Required before first fold and after
// every take (take does it itself).
func (a *agg) reset() {
	*a = agg{minIdx: math.MaxInt, maxIdx: -1, lastIdx: NoIndex}
}

// fold accounts one sampled-out access. This is the aggregate half of the
// drop fast path: it must stay a leaf of plain field updates so Handle.Drop
// stays inlinable (the Makefile's inline-guard enforces it).
func (a *agg) fold(op Op, index int) {
	a.n++
	a.ops[op&aggOpMask]++
	if index >= 0 {
		a.indexed++
		if index > a.maxIdx {
			a.maxIdx = index
			a.fwd++
		}
		if index < a.minIdx {
			a.minIdx = index
			a.back++
		}
		a.lastIdx = index
	}
}

// take converts the folded state into a flushed record for id and resets it.
func (a *agg) take(id InstanceID) AggRecord {
	rec := AggRecord{
		Instance:  id,
		N:         a.n,
		Indexed:   a.indexed,
		Fwd:       a.fwd,
		Back:      a.back,
		LastIndex: a.lastIdx,
		LastSize:  a.size,
	}
	copy(rec.Ops[:], a.ops[:numOps])
	if a.indexed > 0 {
		// The first indexed fold expanded both sentinel bounds; remove that
		// artificial step from the direction counters.
		if rec.Fwd > 0 {
			rec.Fwd--
		}
		if rec.Back > 0 {
			rec.Back--
		}
		rec.MinIndex, rec.MaxIndex = a.minIdx, a.maxIdx
	}
	a.reset()
	return rec
}

// AggregateObserver is an optional Gate extension (like ShapeBinder). A gate
// that implements it receives flushed aggregates instead of blind
// Observe(0, n) settlements for aggregate-covered drops, and can account them
// separately — the sampling controller uses this to tighten bounds. Gates
// without the extension still conserve: the session falls back to
// Observe(0, rec.N).
type AggregateObserver interface {
	ObserveAggregate(rec AggRecord)
}

// AggregateSink receives flushed aggregates for analysis-side folding. The
// streaming analyzer implements it; Attach wires it to the session.
// Implementations must be safe for concurrent use (handles and producers on
// any goroutine flush at their own sync points).
type AggregateSink interface {
	FoldAggregate(rec AggRecord)
}

// AggregateRecorder is an optional Recorder extension for recorders that can
// ship aggregate records across a process boundary (the socket recorder
// writes them as v3 aggregate frames; the memory recorder retains them for
// session logs). When the session has no AggregateSink, flushed aggregates
// are forwarded here.
type AggregateRecorder interface {
	RecordAggregate(rec AggRecord)
}

// SetAggregateSink wires the analysis-side consumer of flushed aggregates.
// Call before the workload starts emitting (the streaming analyzer's Attach
// does this).
func (s *Session) SetAggregateSink(sink AggregateSink) {
	s.aggSink.Store(&sink)
}

// flushAggregate settles one flushed aggregate: gate first (conservation),
// then the analysis sink or, failing that, a capable recorder.
func (s *Session) flushAggregate(rec AggRecord) {
	if rec.N == 0 {
		return
	}
	if ao, ok := s.gate.(AggregateObserver); ok {
		ao.ObserveAggregate(rec)
	} else if s.gate != nil {
		// A gate without the extension still needs exact drop settlement.
		s.gate.Observe(rec.Instance, 0, rec.N)
	}
	s.aggFlushes.Add(1)
	s.aggEvents.Add(rec.N)
	if p := s.aggSink.Load(); p != nil && *p != nil {
		(*p).FoldAggregate(rec)
		return
	}
	if ar, ok := s.rec.(AggregateRecorder); ok {
		ar.RecordAggregate(rec)
	}
}

// AggregateStats reports the session's aggregate-flush counters (the
// dsspy_aggregate_* metrics).
func (s *Session) AggregateStats() (flushes, events uint64) {
	return s.aggFlushes.Load(), s.aggEvents.Load()
}

// Wire codec: v3 aggregate frames.
//
//	kind      0x04 (frameAggregate)
//	uvarint   payload length in bytes
//	payload:
//	    uvarint  instance
//	    uvarint  n
//	    uvarint  indexed
//	    uvarint  fwd
//	    uvarint  back
//	    zigzag   minIndex
//	    zigzag   maxIndex
//	    zigzag   lastIndex
//	    zigzag   lastSize
//	    uvarint  number of (op, count) pairs, then the pairs (nonzero only)
//	uint32    CRC32-C over the payload bytes
//
// Same salvage contract as event frames: the payload is self-delimiting, so
// a checksum failure consumes exactly one frame and the reader keeps going.
const frameAggregate = byte(0x04)

// maxAggPayload bounds the declared payload length on the read side; a legal
// record is under 200 bytes.
const maxAggPayload = 1 << 12

func appendAggRecord(buf []byte, rec AggRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.Instance))
	buf = binary.AppendUvarint(buf, rec.N)
	buf = binary.AppendUvarint(buf, rec.Indexed)
	buf = binary.AppendUvarint(buf, rec.Fwd)
	buf = binary.AppendUvarint(buf, rec.Back)
	buf = binary.AppendUvarint(buf, zigzag(int64(rec.MinIndex)))
	buf = binary.AppendUvarint(buf, zigzag(int64(rec.MaxIndex)))
	buf = binary.AppendUvarint(buf, zigzag(int64(rec.LastIndex)))
	buf = binary.AppendUvarint(buf, zigzag(int64(rec.LastSize)))
	pairs := 0
	for _, c := range rec.Ops {
		if c != 0 {
			pairs++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(pairs))
	for op, c := range rec.Ops {
		if c != 0 {
			buf = binary.AppendUvarint(buf, uint64(op))
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	return buf
}

var errBadAgg = fmt.Errorf("%w: malformed aggregate frame", ErrBadStream)

func decodeAggRecord(payload []byte) (AggRecord, error) {
	c := &columnarCursor{b: payload}
	var rec AggRecord
	fail := false
	u := func() uint64 {
		v, err := c.uvarint()
		if err != nil {
			fail = true
		}
		return v
	}
	z := func() int {
		d := unzigzag(u())
		if d < math.MinInt32 || d > math.MaxInt32 {
			// Indexes/sizes are int on the wire but bounded in practice;
			// reject absurd values rather than fold them into envelopes.
			fail = true
		}
		return int(d)
	}
	rec.Instance = InstanceID(u())
	rec.N = u()
	rec.Indexed = u()
	rec.Fwd = u()
	rec.Back = u()
	rec.MinIndex = z()
	rec.MaxIndex = z()
	rec.LastIndex = z()
	rec.LastSize = z()
	pairs := u()
	if fail || pairs > uint64(len(rec.Ops)) {
		return AggRecord{}, errBadAgg
	}
	for i := uint64(0); i < pairs; i++ {
		op := u()
		cnt := u()
		if fail || op >= uint64(len(rec.Ops)) || cnt > math.MaxUint32 {
			return AggRecord{}, errBadAgg
		}
		rec.Ops[op] = uint32(cnt)
	}
	if c.off != len(payload) {
		return AggRecord{}, errBadAgg
	}
	return rec, nil
}

// WriteAggregate writes one aggregate frame. A record with no events is
// skipped.
func (sw *StreamWriter) WriteAggregate(rec AggRecord) error {
	if rec.N == 0 {
		return nil
	}
	sw.enc = appendAggRecord(sw.enc[:0], rec)
	return sw.writeV3Payload(frameAggregate)
}

// readAggregate reads an aggregate-frame body (kind byte consumed). On
// checksum mismatch the frame is fully consumed and ErrChecksum is returned,
// so salvaging readers skip it and keep decoding.
func (sr *StreamReader) readAggregate() (AggRecord, error) {
	plen, err := sr.readUvarint()
	if err != nil {
		return AggRecord{}, fmt.Errorf("trace: reading aggregate frame length: %w", err)
	}
	if plen == 0 || plen > maxAggPayload {
		return AggRecord{}, fmt.Errorf("%w: aggregate payload of %d bytes (max %d)",
			ErrBadStream, plen, maxAggPayload)
	}
	if uint64(cap(sr.pay)) < plen {
		sr.pay = make([]byte, plen)
	}
	payload := sr.pay[:plen]
	if err := sr.readFull(payload); err != nil {
		return AggRecord{}, fmt.Errorf("trace: reading aggregate payload: %w", noEOF(err))
	}
	sum := sr.buf[:4]
	if err := sr.readFull(sum); err != nil {
		return AggRecord{}, fmt.Errorf("trace: reading aggregate checksum: %w", noEOF(err))
	}
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(payload, crcTable) {
		return AggRecord{}, ErrChecksum
	}
	return decodeAggRecord(payload)
}

// aggSinkPtr is the session's atomic sink slot; a typed alias keeps the
// Session struct readable.
type aggSinkPtr = atomic.Pointer[AggregateSink]
