package trace

import (
	"slices"
	"sort"
	"sync"
)

// ColumnBatch is a struct-of-arrays event batch: six parallel columns, one
// per Event field, all the same length. It is the in-memory twin of the v3
// columnar wire frame — the decoder fills the columns directly, shard stores
// and the k-way merge move them wholesale, and the streaming reducers walk
// them in tight loops — so an event can travel from a v3 log to a folded
// report without ever being materialized as an Event struct.
//
// The columns stay in lockstep: every mutator appends to all six, so
// len(Seq) == len(Instance) == … always holds. Columns are exported for the
// reducers' column walks; treat them as read-only unless you own the batch.
//
// Ownership: a ColumnBatch handed to a ShardSink is reused after the call
// returns — fold or copy, never retain (the same contract BatchRecorder
// imposes on []Event batches). One handed to RecordColumns is the callee's
// (ColumnRecorder).
type ColumnBatch struct {
	Seq      []uint64
	Instance []InstanceID
	Op       []Op
	Thread   []ThreadID
	Index    []int
	Size     []int

	// sole marks a batch handed over by a session's sole producer
	// (BindDefault): the sharded collector queues it only with a room
	// token, which bounds the sole producer's queued events per shard.
	sole bool
}

// minColumnCap is the smallest non-zero column capacity Grow allocates; it
// matches DefaultBatchSize so pooled producer batches are right-sized from
// the first use.
const minColumnCap = DefaultBatchSize

// columnPool recycles the column batches that carry events across the shard
// boundary. A producer takes one per shard it writes to and hands it over at
// Flush (ColumnRecorder); RecordBatch scatters a []Event flush into them;
// the drain goroutine returns each after the sink and store are done.
var columnPool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// pooledColumns takes a cleared batch from the pool with room for n events.
func pooledColumns(n int) *ColumnBatch {
	b := columnPool.Get().(*ColumnBatch)
	b.Reset()
	b.Grow(n)
	return b
}

// releaseColumns returns a batch nobody references any more to the pool.
func releaseColumns(b *ColumnBatch) { columnPool.Put(b) }

// Len returns the number of events in the batch.
func (b *ColumnBatch) Len() int { return len(b.Seq) }

// At gathers event i from the columns. The struct is assembled in registers —
// reducers that need whole events (the run segmenter) call this per element
// without allocating.
func (b *ColumnBatch) At(i int) Event {
	return Event{
		Seq:      b.Seq[i],
		Instance: b.Instance[i],
		Op:       b.Op[i],
		Thread:   b.Thread[i],
		Index:    b.Index[i],
		Size:     b.Size[i],
	}
}

// Grow ensures capacity for n more events without changing Len. Capacity
// doubles rather than following the runtime's ~1.25× large-slice growth, so
// million-event stores bound cumulative copy volume by 2× the final size
// (the same policy the shard stores used for []Event).
func (b *ColumnBatch) Grow(n int) {
	need := len(b.Seq) + n
	if need <= cap(b.Seq) {
		return
	}
	newCap := 2 * cap(b.Seq)
	if newCap < need {
		newCap = need
	}
	if newCap < minColumnCap {
		newCap = minColumnCap
	}
	seq := make([]uint64, len(b.Seq), newCap)
	copy(seq, b.Seq)
	b.Seq = seq
	inst := make([]InstanceID, len(b.Instance), newCap)
	copy(inst, b.Instance)
	b.Instance = inst
	op := make([]Op, len(b.Op), newCap)
	copy(op, b.Op)
	b.Op = op
	th := make([]ThreadID, len(b.Thread), newCap)
	copy(th, b.Thread)
	b.Thread = th
	idx := make([]int, len(b.Index), newCap)
	copy(idx, b.Index)
	b.Index = idx
	sz := make([]int, len(b.Size), newCap)
	copy(sz, b.Size)
	b.Size = sz
}

// Append scatters one event onto the columns.
func (b *ColumnBatch) Append(e Event) {
	b.Grow(1)
	b.Seq = append(b.Seq, e.Seq)
	b.Instance = append(b.Instance, e.Instance)
	b.Op = append(b.Op, e.Op)
	b.Thread = append(b.Thread, e.Thread)
	b.Index = append(b.Index, e.Index)
	b.Size = append(b.Size, e.Size)
}

// AppendEvents scatters a struct batch onto the columns — the single pivot
// point where array-of-structs traffic becomes columnar.
func (b *ColumnBatch) AppendEvents(events []Event) {
	base := b.Len()
	b.Grow(len(events))
	b.setLen(base + len(events))
	// Indexed stores into the opened columns; the re-slices to len(events)
	// let the compiler drop the bounds checks.
	seq := b.Seq[base:][:len(events)]
	inst := b.Instance[base:][:len(events)]
	op := b.Op[base:][:len(events)]
	th := b.Thread[base:][:len(events)]
	idx := b.Index[base:][:len(events)]
	sz := b.Size[base:][:len(events)]
	for i, e := range events {
		seq[i] = e.Seq
		inst[i] = e.Instance
		op[i] = e.Op
		th[i] = e.Thread
		idx[i] = e.Index
		sz[i] = e.Size
	}
}

// AppendRange appends events [i, j) of src column-wise: six bulk copies, no
// per-event work. This is what the drain and the k-way merge move batches
// with.
func (b *ColumnBatch) AppendRange(src *ColumnBatch, i, j int) {
	b.Grow(j - i)
	b.Seq = append(b.Seq, src.Seq[i:j]...)
	b.Instance = append(b.Instance, src.Instance[i:j]...)
	b.Op = append(b.Op, src.Op[i:j]...)
	b.Thread = append(b.Thread, src.Thread[i:j]...)
	b.Index = append(b.Index, src.Index[i:j]...)
	b.Size = append(b.Size, src.Size[i:j]...)
}

// AppendTo inflates events [i, j) onto dst — the compatibility bridge for
// consumers that still want []Event (the producer's RecordAll fallback and
// the tenant sink's delivery). When dst lacks room it at least
// doubles, so accumulating many batches onto one slice copies each event a
// bounded number of times.
func (b *ColumnBatch) AppendTo(dst []Event, i, j int) []Event {
	if n := j - i; cap(dst)-len(dst) < n {
		dst = slices.Grow(dst, max(n, len(dst)))
	}
	for k := i; k < j; k++ {
		dst = append(dst, b.At(k))
	}
	return dst
}

// Events inflates the whole batch onto dst (often nil).
func (b *ColumnBatch) Events(dst []Event) []Event { return b.AppendTo(dst, 0, b.Len()) }

// Slice returns a view of events [i, j) sharing the underlying columns. The
// view is capped so appends to it cannot clobber the parent.
func (b *ColumnBatch) Slice(i, j int) ColumnBatch {
	return ColumnBatch{
		Seq:      b.Seq[i:j:j],
		Instance: b.Instance[i:j:j],
		Op:       b.Op[i:j:j],
		Thread:   b.Thread[i:j:j],
		Index:    b.Index[i:j:j],
		Size:     b.Size[i:j:j],
	}
}

// Reset truncates all columns to zero length, keeping capacity.
func (b *ColumnBatch) Reset() {
	b.sole = false
	b.Seq = b.Seq[:0]
	b.Instance = b.Instance[:0]
	b.Op = b.Op[:0]
	b.Thread = b.Thread[:0]
	b.Index = b.Index[:0]
	b.Size = b.Size[:0]
}

// InstanceRun returns the end of the run of equal Instance values starting at
// i, bounded by limit. Columnar frames are RLE-encoded per column, so these
// runs are typically whole producer batches — the streaming analyzer resolves
// the per-instance reducer once per run instead of once per event.
func (b *ColumnBatch) InstanceRun(i, limit int) int {
	id := b.Instance[i]
	j := i + 1
	for j < limit && b.Instance[j] == id {
		j++
	}
	return j
}

// ThreadRun returns the end of the run of equal Thread values starting at i,
// bounded by limit.
func (b *ColumnBatch) ThreadRun(i, limit int) int {
	id := b.Thread[i]
	j := i + 1
	for j < limit && b.Thread[j] == id {
		j++
	}
	return j
}

// FirstSeq and LastSeq bound a (sorted) run for overlap checks.
func (b *ColumnBatch) FirstSeq() uint64 { return b.Seq[0] }
func (b *ColumnBatch) LastSeq() uint64  { return b.Seq[len(b.Seq)-1] }

// IsSortedBySeq reports whether the Seq column is non-decreasing.
func (b *ColumnBatch) IsSortedBySeq() bool {
	for i := 1; i < len(b.Seq); i++ {
		if b.Seq[i] < b.Seq[i-1] {
			return false
		}
	}
	return true
}

// SortBySeq sorts the batch by Seq in place, swapping all six columns
// together. Stores arrive near-sorted (producers enqueue in Seq order; only
// cross-producer interleaving perturbs them), so the already-sorted check
// usually short-circuits the whole sort.
func (b *ColumnBatch) SortBySeq() {
	if b.IsSortedBySeq() {
		return
	}
	sort.Sort((*columnsBySeq)(b))
}

type columnsBySeq ColumnBatch

func (c *columnsBySeq) Len() int           { return len(c.Seq) }
func (c *columnsBySeq) Less(i, j int) bool { return c.Seq[i] < c.Seq[j] }
func (c *columnsBySeq) Swap(i, j int) {
	c.Seq[i], c.Seq[j] = c.Seq[j], c.Seq[i]
	c.Instance[i], c.Instance[j] = c.Instance[j], c.Instance[i]
	c.Op[i], c.Op[j] = c.Op[j], c.Op[i]
	c.Thread[i], c.Thread[j] = c.Thread[j], c.Thread[i]
	c.Index[i], c.Index[j] = c.Index[j], c.Index[i]
	c.Size[i], c.Size[j] = c.Size[j], c.Size[i]
}

// setLen sets every column's length to n, which must be within capacity:
// decode error paths cut a partial append back with it, and producers open
// their pre-sized columns for indexed stores.
func (b *ColumnBatch) setLen(n int) {
	b.Seq = b.Seq[:n]
	b.Instance = b.Instance[:n]
	b.Op = b.Op[:n]
	b.Thread = b.Thread[:n]
	b.Index = b.Index[:n]
	b.Size = b.Size[:n]
}

// keepStrided compacts the batch in place to events first, first+stride,
// first+2·stride, …: the tenant ladder's sample rung. Stride 1 from 0 keeps
// the batch whole; stride 0 empties it.
func (b *ColumnBatch) keepStrided(first, stride int) {
	if first == 0 && stride == 1 {
		return
	}
	k := 0
	for i := first; stride > 0 && i < b.Len(); i += stride {
		b.Seq[k] = b.Seq[i]
		b.Instance[k] = b.Instance[i]
		b.Op[k] = b.Op[i]
		b.Thread[k] = b.Thread[i]
		b.Index[k] = b.Index[i]
		b.Size[k] = b.Size[i]
		k++
	}
	b.setLen(k)
}

// mergeColumnRuns k-way-merges Seq-sorted column runs into one batch. It
// keeps a small binary min-heap of run heads, but instead of popping one
// event at a time it copies the maximal span of the winning run that stays
// ≤ the next-smallest head — on disjoint runs that is the whole run in one
// six-column copy, and a run is only ever split at a genuine overlap
// boundary. The second result counts those splits (a run copied in
// k pieces contributes k-1).
//
// With exactly one non-empty run the run itself is returned, aliased, so the
// single-shard collector pays no merge copy.
func mergeColumnRuns(runs []*ColumnBatch) (*ColumnBatch, int) {
	nz := make([]*ColumnBatch, 0, len(runs))
	total := 0
	for _, r := range runs {
		if r != nil && r.Len() > 0 {
			nz = append(nz, r)
			total += r.Len()
		}
	}
	switch len(nz) {
	case 0:
		return &ColumnBatch{}, 0
	case 1:
		return nz[0], 0
	}
	out := &ColumnBatch{}
	out.Grow(total)
	splits := 0
	heap := make([]int, len(nz))
	pos := make([]int, len(nz))
	for i := range nz {
		heap[i] = i
	}
	head := func(h int) uint64 { return nz[h].Seq[pos[h]] }
	siftDown := func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			m := l
			if r := l + 1; r < n && head(heap[r]) < head(heap[l]) {
				m = r
			}
			if head(heap[i]) <= head(heap[m]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for n > 0 {
		h := heap[0]
		r := nz[h]
		i := pos[h]
		if n == 1 {
			// Last surviving run: the rest of it is the tail of the merge.
			out.AppendRange(r, i, r.Len())
			break
		}
		// The span we may copy ends where another run's head takes over.
		lim := head(heap[1])
		if n > 2 && head(heap[2]) < lim {
			lim = head(heap[2])
		}
		j := i + 1
		for j < r.Len() && r.Seq[j] <= lim {
			j++
		}
		if j == i+1 {
			// Single-element span (heavily interleaved runs): six scalar
			// appends beat six one-element slice copies.
			out.Seq = append(out.Seq, r.Seq[i])
			out.Instance = append(out.Instance, r.Instance[i])
			out.Op = append(out.Op, r.Op[i])
			out.Thread = append(out.Thread, r.Thread[i])
			out.Index = append(out.Index, r.Index[i])
			out.Size = append(out.Size, r.Size[i])
		} else {
			out.AppendRange(r, i, j)
		}
		pos[h] = j
		if j == r.Len() {
			n--
			heap[0] = heap[n]
		} else {
			splits++
		}
		siftDown(0, n)
	}
	return out, splits
}

// NormalizeColumnRuns prepares decoded frame batches for in-order folding:
// every batch is sorted by Seq in place, empties are dropped, and the list is
// ordered by leading Seq. When the runs are pairwise disjoint — the common
// case for a session log written from one collector — they are returned as-is
// with zero copies; overlapping runs (interleaved spill WALs, salvaged tails)
// are k-way merged into a single batch, and the split count is returned.
func NormalizeColumnRuns(batches []*ColumnBatch) ([]*ColumnBatch, int) {
	runs := batches[:0]
	for _, b := range batches {
		if b == nil || b.Len() == 0 {
			continue
		}
		b.SortBySeq()
		runs = append(runs, b)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].FirstSeq() < runs[j].FirstSeq() })
	disjoint := true
	for i := 1; i < len(runs); i++ {
		if runs[i].FirstSeq() < runs[i-1].LastSeq() {
			disjoint = false
			break
		}
	}
	if disjoint {
		return runs, 0
	}
	merged, splits := mergeColumnRuns(runs)
	return []*ColumnBatch{merged}, splits
}
