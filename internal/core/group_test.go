package core

import (
	"testing"

	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// TestGroupFoldFullFidelityOnly: only a FeedShard batch at full fidelity
// takes the path that may group it by instance (feedShard, which lists the
// batch's instance runs). A sampled fold keeps the batch's order, since the
// controller sees the instances' windows in fold order, and a fold worker
// walks its share of the caller's whole batch in place.
func TestGroupFoldFullFidelityOnly(t *testing.T) {
	b := slotEvents([]trace.InstanceID{1, 3, 5}, 64) // one-event runs
	for _, c := range []struct {
		name    string
		sampled bool
		worker  bool
		grouped bool
	}{
		{"full", false, false, true},
		{"sampled", true, false, false},
		{"fold worker", false, true, false},
	} {
		a := New().NewStreamAnalyzer(2)
		if c.sampled {
			a.SetSampling(sample.NewController(sample.Config{Mode: sample.ModeStatic, StaticRate: 64}))
		}
		if c.worker {
			a.FeedColumns(b)
			a.settle()
		} else {
			a.FeedShard(1, b)
		}
		if got := len(a.shards[1].scratch.ends) > 0; got != c.grouped {
			t.Errorf("%s: grouping path = %v, want %v", c.name, got, c.grouped)
		}
		if rep := a.Close(); rep.Stats.Streaming.Folded != uint64(b.Len()) {
			t.Errorf("%s: folded %d of %d events", c.name, rep.Stats.Streaming.Folded, b.Len())
		}
	}
}
