package trace

import (
	"fmt"
	"io"
	"time"

	"dsspy/internal/obs"
)

// CollectorStats is the observability surface of a collector: how many
// events flowed through it, how many it refused and why, how full its queues
// got, and how long producers were blocked waiting for the drain side to
// catch up. A sustained non-zero BlockTime or a high-water mark near the
// buffer capacity means the collector, not the workload, is the bottleneck.
//
// The counters satisfy the delivery/accounting invariant: Events (recorded)
// minus Dropped is exactly the number of events in the store — nothing is
// ever silently lost.
type CollectorStats struct {
	Shards int // number of shards
	// Buffer is the per-shard buffer in events. The queue holds
	// Buffer/DefaultBatchSize slots, so it holds Buffer events only when
	// every slot is a full 64-event Bind flush: a per-event Record slot
	// holds one event. A sole producer's batches fill at most half of it
	// (see DefaultAsyncBuffer).
	Buffer    int
	Policy    string        // overload policy: block, drop, or sample:N
	Events    uint64        // total events recorded (delivered + dropped)
	Dropped   uint64        // events not stored: overload drops + after-close drops
	BlockTime time.Duration // cumulative producer time spent blocked on full buffers

	// DroppedAfterClose counts events recorded after Close — an instrumented
	// program that outlived its profiling shutdown. They are included in
	// Dropped.
	DroppedAfterClose uint64

	// Per-shard breakdowns, indexed by shard. Events are partitioned by
	// InstanceID, so a skewed ShardRecorded distribution means a few hot
	// instances dominate the trace. ShardDropped counts overload drops only;
	// after-close drops are reported in the collector-wide counter.
	ShardRecorded  []uint64
	ShardDropped   []uint64
	ShardHighWater []int // max queue length observed per shard
	ShardBlock     []time.Duration

	// ShardQueueDepth holds the sampled queue-depth distribution per shard
	// when EnableQueueSampling ran; nil otherwise. The high-water mark says
	// how bad it ever got, the depth histogram says how full the queue
	// typically was.
	ShardQueueDepth     []obs.HistSnapshot
	QueueSampleInterval time.Duration
}

// Delivered returns the number of events that reached the store.
func (cs CollectorStats) Delivered() uint64 { return cs.Events - cs.Dropped }

// Write renders the stats in the layout `dsspy -stats` prints.
func (cs CollectorStats) Write(w io.Writer) error {
	policy := cs.Policy
	if policy == "" {
		policy = "block"
	}
	if _, err := fmt.Fprintf(w, "Collector: %d shard(s) × buffer %d, policy %s, %d events (%d dropped, %d after close), producer block time %s\n",
		cs.Shards, cs.Buffer, policy, cs.Events, cs.Dropped, cs.DroppedAfterClose, cs.BlockTime); err != nil {
		return err
	}
	for i := range cs.ShardRecorded {
		line := fmt.Sprintf("  shard %d: %d events, queue high-water %d/%d, block %s",
			i, cs.ShardRecorded[i], cs.ShardHighWater[i], cs.Buffer, cs.ShardBlock[i])
		if i < len(cs.ShardDropped) && cs.ShardDropped[i] > 0 {
			line += fmt.Sprintf(", dropped %d", cs.ShardDropped[i])
		}
		if i < len(cs.ShardQueueDepth) && cs.ShardQueueDepth[i].Count > 0 {
			q := cs.ShardQueueDepth[i]
			line += fmt.Sprintf(", depth p50 %.0f p99 %.0f (%d samples)",
				q.Quantile(0.50), q.Quantile(0.99), q.Count)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
