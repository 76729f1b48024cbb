package core

import (
	"bytes"
	"testing"
	"unsafe"

	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// slotEvents is a forward scan of n elements on each of ids, interleaved
// one event at a time.
func slotEvents(ids []trace.InstanceID, n int) *trace.ColumnBatch {
	var b trace.ColumnBatch
	seq := uint64(0)
	for i := 0; i < n; i++ {
		for _, id := range ids {
			seq++
			b.Append(trace.Event{Seq: seq, Instance: id, Op: trace.OpRead, Index: i, Size: n})
		}
	}
	return &b
}

// reportBytes renders rep's report text.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSparseInstanceIDs: instance ids far beyond any session's, as a corrupt
// or hostile log may carry, fold like dense ones, and a shard allocates
// slots for its reducers, not for its ids.
func TestSparseInstanceIDs(t *testing.T) {
	ids := []trace.InstanceID{1, 1 << 31, 7, 1<<31 + 7, 1<<32 - 1, 4}
	b := slotEvents(ids, 64)

	const shards = 2
	fed := New().NewStreamAnalyzer(shards)
	var parts [shards]trace.ColumnBatch
	for i := 0; i < b.Len(); i++ {
		parts[int(b.Instance[i])%shards].AppendRange(b, i, i+1)
	}
	for s := range parts {
		fed.FeedShard(s, &parts[s])
	}
	for s, sh := range fed.shards {
		if cap(sh.slots) > 2*slotSlack {
			t.Errorf("shard %d allocated %d slots for %d reducers", s, cap(sh.slots), sh.streams)
		}
	}
	rep := fed.Close()
	if len(rep.Instances) != len(ids) {
		t.Fatalf("report has %d rows, want %d", len(rep.Instances), len(ids))
	}
	for _, ir := range rep.Instances {
		if ir.Profile.Len() != 64 {
			t.Errorf("instance %d folded %d events, want 64", ir.Profile.Instance.ID, ir.Profile.Len())
		}
	}

	// The same events, one instance per analyzer, give the same rows.
	for i, ir := range rep.Instances {
		alone := New().NewStreamAnalyzer(1)
		var one trace.ColumnBatch
		for k := 0; k < b.Len(); k++ {
			if b.Instance[k] == ir.Profile.Instance.ID {
				one.AppendRange(b, k, k+1)
			}
		}
		alone.FeedColumns(&one)
		want := &Report{Instances: alone.Close().Instances}
		got := &Report{Instances: rep.Instances[i : i+1]}
		if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
			t.Errorf("instance %d's row differs from its fold alone", ir.Profile.Instance.ID)
		}
	}
}

// TestForeignShardInstances: a caller that feeds a shard instances of
// another shard, whose slots there collide, still folds each instance
// apart.
func TestForeignShardInstances(t *testing.T) {
	a := New().NewStreamAnalyzer(2)
	a.FeedShard(0, slotEvents([]trace.InstanceID{2, 3}, 32)) // slot 1 both
	rep := a.Close()
	if len(rep.Instances) != 2 {
		t.Fatalf("report has %d rows, want 2", len(rep.Instances))
	}
	for _, ir := range rep.Instances {
		if ir.Profile.Len() != 32 {
			t.Errorf("instance %d folded %d events, want 32", ir.Profile.Instance.ID, ir.Profile.Len())
		}
	}
}

// TestRotatedWindowSlots: a daemon window after the first folds a tenant's
// newest instances, whose ids lie far past slotSlack per shard. Their
// registry entries bound the slots, so each lands in its slot, not in far;
// an id beyond the registry still goes to far.
func TestRotatedWindowSlots(t *testing.T) {
	const shards, window = 2, 1000
	const registered = 4*slotSlack*shards + 10
	dm := New().NewDaemon(DaemonConfig{WindowEvents: window, Shards: shards})
	for id := trace.InstanceID(1); id <= registered; id++ {
		dm.TenantInstance("t", trace.Instance{ID: id, Kind: trace.KindList, TypeName: "int"})
	}
	first := make([]trace.Event, window)
	for i := range first {
		first[i] = trace.Event{Seq: uint64(i + 1), Instance: 1, Op: trace.OpRead, Index: i, Size: window}
	}
	dm.TenantEvents("t", first) // fills and rotates the first window

	var newest []trace.InstanceID
	for id := trace.InstanceID(registered - 99); id <= registered; id++ {
		newest = append(newest, id)
	}
	const beyond = registered + 1<<20
	b := slotEvents(append(newest, beyond), 8)
	second := make([]trace.Event, b.Len())
	for i := range second {
		second[i] = b.At(i)
		second[i].Seq += window
	}
	dm.TenantEvents("t", second)

	a := dm.tenant("t").analyzer
	rep := a.Snapshot()
	if len(rep.Instances) != len(newest)+1 {
		t.Fatalf("window has %d rows, want %d", len(rep.Instances), len(newest)+1)
	}
	for _, ir := range rep.Instances {
		if ir.Profile.Len() != 8 {
			t.Errorf("instance %d folded %d events, want 8", ir.Profile.Instance.ID, ir.Profile.Len())
		}
	}
	far := 0
	for s, sh := range a.shards {
		for _, st := range sh.far {
			if st.id != beyond {
				t.Errorf("shard %d: registered instance %d went to far", s, st.id)
			}
			far++
		}
		if len(sh.slots) > registered/shards+1 {
			t.Errorf("shard %d has %d slots for a registry of %d", s, len(sh.slots), registered)
		}
	}
	if far != 1 {
		t.Errorf("%d reducers in far, want 1 (the id beyond the registry)", far)
	}
}

// scratchBytes is the memory a shard's fold scratch holds.
func scratchBytes(fs *foldScratch) uintptr {
	return uintptr(cap(fs.span.Closes))*unsafe.Sizeof(profile.RunClose{}) +
		uintptr(cap(fs.span.Runs))*unsafe.Sizeof(profile.Run{}) +
		uintptr(cap(fs.pats))*unsafe.Sizeof(pattern.Pattern{}) +
		uintptr(cap(fs.ends))*unsafe.Sizeof(0)
}

// TestFeedColumnsScratchBounded: a fold worker folds its shard's share of a
// FeedColumns batch in place, so however long the batch and however short
// its instance runs, the shard's fold scratch does not grow with it.
func TestFeedColumnsScratchBounded(t *testing.T) {
	ids := make([]trace.InstanceID, 64)
	for i := range ids {
		ids[i] = trace.InstanceID(i + 1)
	}
	b := slotEvents(ids, 1<<11) // 131,072 events in one-event instance runs
	a := New().NewStreamAnalyzer(2)
	a.FeedColumns(b)
	a.settle()
	for s, sh := range a.shards {
		if n := scratchBytes(&sh.scratch); n > 4<<10 {
			t.Errorf("shard %d's fold scratch holds %d B after a %d-event batch", s, n, b.Len())
		}
	}
	if rep := a.Close(); rep.Stats.Streaming.Folded != uint64(b.Len()) {
		t.Errorf("folded %d of %d events", rep.Stats.Streaming.Folded, b.Len())
	}
}
