package metrics

import (
	"strings"
	"testing"
	"time"

	"dsspy/internal/trace"
)

func TestOverheadStats(t *testing.T) {
	ov := &OverheadStats{
		WorkloadWall:      100 * time.Millisecond,
		PlainWall:         10 * time.Millisecond,
		Events:            1_000_000,
		Sampled:           15_625,
		SampleEvery:       64,
		RecordMean:        50 * time.Nanosecond,
		RecordP50:         40 * time.Nanosecond,
		RecordP99:         200 * time.Nanosecond,
		EstimatedOverhead: 50 * time.Millisecond,
	}
	if got := ov.MeasuredSlowdown(); got != 10 {
		t.Fatalf("measured slowdown = %v, want 10", got)
	}
	if got := ov.EstimatedSlowdown(); got != 2 {
		t.Fatalf("estimated slowdown = %v, want 2", got)
	}
	var sb strings.Builder
	if err := ov.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"record cost p50 40ns p99 200ns",
		"estimated slowdown 2.00×",
		"measured slowdown 10.00×",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("overhead output missing %q:\n%s", want, out)
		}
	}

	// No twin, no estimated overhead: factors degrade to 1 / 0.
	bare := &OverheadStats{WorkloadWall: time.Second}
	if bare.EstimatedSlowdown() != 1 || bare.MeasuredSlowdown() != 0 {
		t.Fatalf("bare = %v/%v", bare.EstimatedSlowdown(), bare.MeasuredSlowdown())
	}

	// Mean extrapolation exceeding the wall (blocked samples) falls back to
	// the p50 extrapolation: 10ms wall, 1e6 events × p50 5ns = 5ms → 2×.
	blocked := &OverheadStats{
		WorkloadWall:      10 * time.Millisecond,
		Events:            1_000_000,
		Sampled:           MinStableSamples,
		RecordMean:        20 * time.Nanosecond,
		RecordP50:         5 * time.Nanosecond,
		EstimatedOverhead: 20 * time.Millisecond,
	}
	if got := blocked.EstimatedSlowdown(); got != 2 {
		t.Fatalf("p50 fallback slowdown = %v, want 2", got)
	}

	// Too few timed samples: the extrapolation is noise, so the factor is
	// the explicit sentinel and Write says "n/a" instead of a confident
	// multiplier.
	unstable := &OverheadStats{
		WorkloadWall:      10 * time.Millisecond,
		Events:            100,
		Sampled:           MinStableSamples - 1,
		SampleEvery:       64,
		RecordMean:        20 * time.Nanosecond,
		RecordP50:         5 * time.Nanosecond,
		EstimatedOverhead: time.Millisecond,
	}
	if got := unstable.EstimatedSlowdown(); got != EstimatedSlowdownUnstable {
		t.Fatalf("unstable slowdown = %v, want sentinel %v", got, EstimatedSlowdownUnstable)
	}
	sb.Reset()
	if err := unstable.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "estimated slowdown n/a") {
		t.Errorf("unstable output missing n/a line:\n%s", sb.String())
	}

	// Saturated both ways: factor 0 and an explanatory line instead of a
	// nonsense multiplier.
	saturated := &OverheadStats{
		WorkloadWall:      time.Millisecond,
		Events:            1_000_000,
		Sampled:           MinStableSamples,
		RecordP50:         50 * time.Nanosecond,
		EstimatedOverhead: 10 * time.Millisecond,
	}
	if got := saturated.EstimatedSlowdown(); got != 0 {
		t.Fatalf("saturated slowdown = %v, want 0", got)
	}
	sb.Reset()
	if err := saturated.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "estimate saturated") {
		t.Errorf("saturated output missing explanation:\n%s", sb.String())
	}
}

func TestPipelineStatsWrite(t *testing.T) {
	ps := &PipelineStats{
		Events:    1000,
		Instances: 3,
		Workers:   4,
		Wall:      5 * time.Millisecond,
		Streaming: &StreamingStats{Shards: 4, Folded: 1000, Instances: 3, OpenRuns: 2},
		Overhead: &OverheadStats{
			WorkloadWall:      20 * time.Millisecond,
			Events:            1000,
			Sampled:           16,
			SampleEvery:       64,
			RecordMean:        100 * time.Nanosecond,
			EstimatedOverhead: 100 * time.Microsecond,
		},
		Collector: &trace.CollectorStats{
			Shards:         2,
			Buffer:         8,
			Events:         1000,
			ShardRecorded:  []uint64{600, 400},
			ShardHighWater: []int{8, 3},
			ShardBlock:     []time.Duration{time.Millisecond, 0},
			BlockTime:      time.Millisecond,
		},
	}
	var sb strings.Builder
	if err := ps.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"1000 events, 3 instances, 4 worker(s)",
		"Streaming: 4 shard(s), 1000 events folded, 3 instance reducer(s), 2 open run(s)",
		"Overhead: workload wall 20ms",
		"Collector: 2 shard(s) × buffer 8",
		"shard 0: 600 events, queue high-water 8/8",
		"shard 1: 400 events, queue high-water 3/8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}
