package core

import (
	"testing"

	"dsspy/internal/trace"
)

// TestMixedEmitAndBindFoldInSeqOrder pins the one-channel ordering contract:
// one goroutine that mixes unbound Session.Emit events with Producer flushes
// on the same instances must reach every shard's sink in Seq order, so
// nothing folds out of order. The tiny buffer keeps the drains behind the
// producer, so single events and flushes queue side by side.
func TestMixedEmitAndBindFoldInSeqOrder(t *testing.T) {
	sa := New().NewStreamAnalyzer(4)
	col := sa.Collector(2*trace.DefaultBatchSize, trace.Block(), false)
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureThreads: true})
	sa.Attach(s)
	ids := make([]trace.InstanceID, 6)
	for i := range ids {
		ids[i] = s.Register(trace.KindList, "List[int]", "", 0)
	}
	p := s.Bind()
	const rounds = 3000
	for r := 0; r < rounds; r++ {
		for i, id := range ids {
			p.Emit(id, trace.OpInsert, r, r+1)
			if (r+i)%5 == 0 {
				s.Emit(id, trace.OpRead, r, r+1)
			}
		}
		if r%7 == 0 {
			p.Flush()
		}
	}
	p.Close()
	col.Close()
	rep := sa.Close()

	cs := col.Stats()
	if cs.Dropped != 0 {
		t.Fatalf("Block policy dropped %d events", cs.Dropped)
	}
	if got, want := rep.Stats.Streaming.Folded, cs.Events; got != want {
		t.Fatalf("folded %d events, collector recorded %d", got, want)
	}
	if ooo := rep.Stats.Streaming.OutOfOrder; ooo != 0 {
		t.Fatalf("one goroutine's Emit events and Producer flushes folded %d events out of Seq order", ooo)
	}
}
