package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Salvaging loaders. A multi-hour trace must not become worthless because the
// producing process died mid-write or a disk sector flipped a bit: the
// recovery loaders decode the longest valid prefix of a damaged stream, skip
// frames whose checksum fails, and report exactly what was lost. They are the
// post-mortem half of the delivery/accounting invariant — an event that could
// not be delivered live is either recovered here or counted in the
// diagnostic, never silently gone.

// Recovery describes what a salvaging load managed to decode and what it had
// to give up. A zero SkippedFrames/DiscardedBytes with Truncated == false
// means the stream was intact.
type Recovery struct {
	Events    int // events recovered
	Instances int // registry records recovered
	// SkippedFrames counts frames dropped as damaged: event and aggregate
	// frames whose CRC32 check failed (v2 and v3 streams carry checksums),
	// and registry records naming an implausible ID (plausibleRegistryID).
	// SkippedEvents is the number of events the skipped event frames
	// declared.
	SkippedFrames int
	SkippedEvents int
	// Truncated reports that the stream ended without the end-of-stream
	// marker: the producer died mid-run or the tail was cut.
	Truncated bool
	// DiscardedBytes is the length of the undecodable tail.
	DiscardedBytes int64
	// Err is the structural error that stopped decoding, nil when the stream
	// was read to its end marker.
	Err error
}

// Clean reports whether the stream was decoded completely with no loss.
func (r *Recovery) Clean() bool {
	return r != nil && !r.Truncated && r.SkippedFrames == 0 && r.Err == nil
}

// String summarizes the recovery for logs and CLI output.
func (r *Recovery) String() string {
	if r.Clean() {
		return fmt.Sprintf("intact: %d events, %d instances", r.Events, r.Instances)
	}
	s := fmt.Sprintf("recovered %d events, %d instances", r.Events, r.Instances)
	if r.SkippedFrames > 0 {
		s += fmt.Sprintf("; skipped %d corrupt frame(s) (%d events)", r.SkippedFrames, r.SkippedEvents)
	}
	if r.Truncated {
		s += fmt.Sprintf("; truncated tail (%d bytes discarded)", r.DiscardedBytes)
	}
	if r.Err != nil {
		s += fmt.Sprintf("; stopped at: %v", r.Err)
	}
	return s
}

// RecoverSessionColumns loads as much of a session log as is decodable: every
// event batch and registry record before the first structural damage, minus
// any checksum-failed frames (which are skipped, counted, and decoding
// continues). The events come back as column batches — on a v3 log without
// inflating a single Event — normalized into ascending, pairwise-disjoint
// Seq-sorted runs for StreamAnalyzer.FeedColumns. The returned error is
// non-nil only when nothing could be salvaged at all — the file is
// unreadable or its header is not a DSspy stream. Damage inside the stream is
// reported through the Recovery diagnostic instead, which is always non-nil
// on a nil error. It also salvages events-only streams (a FileRecorder log or
// a resilient recorder's spill file, with an empty registry); spill files
// have no end-of-stream marker by design, so Truncated is expected for them
// and only SkippedFrames/DiscardedBytes indicate real loss.
func RecoverSessionColumns(path string) (*Session, []*ColumnBatch, *Recovery, error) {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	batches, rec, err := recoverFile(path, s.restoreInstance)
	if err != nil {
		return nil, nil, nil, err
	}
	runs, _ := NormalizeColumnRuns(batches)
	return s, runs, rec, nil
}

// recoverFile runs recoverColumns over the file at path, with the error
// contract of RecoverSessionColumns. The resilient recorder's spill replay
// passes a nil onInstance: a spill carries no registry, and a damaged one
// must not grow a session.
func recoverFile(path string, onInstance func(Instance)) ([]*ColumnBatch, *Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: opening session log: %w", err)
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	sr, err := NewStreamReader(f)
	if err != nil {
		return nil, nil, err
	}
	batches, rec := recoverColumns(sr, size, onInstance)
	return batches, rec, nil
}

// recoverColumns drives the salvaging decode loop: read frames until the end
// marker, the underlying EOF, or structural damage; skip checksum-failed
// frames. Each surviving event frame is decoded onto its own ColumnBatch;
// onInstance, when non-nil, receives registry records. Aggregate frames go
// to OnAggregate when set; hello frames carry no tenant dimension here and
// are dropped.
func recoverColumns(sr *StreamReader, size int64, onInstance func(Instance)) ([]*ColumnBatch, *Recovery) {
	rec := &Recovery{}
	var batches []*ColumnBatch
	sawEnd := false
	b := &ColumnBatch{} // the next event frame's batch
	for {
		// Offset of the last frame boundary: everything before it decoded.
		boundary := sr.Offset()
		ent, err := sr.readEntry(b)
		switch {
		case err == nil:
		case errors.Is(err, ErrChecksum):
			// The frame was fully consumed; its payload is untrustworthy
			// but the framing survives. Skip it and keep decoding.
			rec.SkippedFrames++
			rec.SkippedEvents += ent.n
			continue
		case err == io.EOF && sawEnd:
			// Clean end: marker seen, then EOF.
			return batches, rec
		default:
			// EOF exactly at a frame boundary without an end marker: the
			// tail is missing but no partial frame was discarded, so there
			// is no error to report.
			rec.Truncated = true
			if err != io.EOF {
				rec.Err = err
			}
			if size >= 0 {
				rec.DiscardedBytes = size - boundary
			}
			return batches, rec
		}
		switch ent.kind {
		case frameEnd:
			// Events first, registry afterwards; remember the marker and
			// keep reading until the stream truly ends.
			sawEnd = true
		case frameEvents:
			batches = append(batches, b)
			b = &ColumnBatch{}
			rec.Events += ent.n
		case frameInstance:
			if !plausibleRegistryID(ent.instance.ID, rec.Events+rec.Instances) {
				// A record naming an ID far past anything the stream
				// carried is damage; skip it like a corrupt frame.
				rec.SkippedFrames++
				continue
			}
			rec.Instances++
			if onInstance != nil {
				onInstance(ent.instance)
			}
		}
	}
}
