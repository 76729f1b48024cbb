package trace

import (
	"fmt"
	"os"
	"sync"
)

// File-based event logging. The paper argues against file-based logs —
// "I/O is time consuming and for in-memory the log size can be a limiting
// factor" (§IV) — and chooses asynchronous IPC instead. FileRecorder
// implements the rejected alternative anyway: it makes the paper's argument
// measurable (BenchmarkRecorderFile vs BenchmarkRecorderAsync) and provides
// durable post-mortem logs that LoadSessionColumns replays into the analysis
// pipeline long after the program run (an events-only log, so the replay
// session's registry is empty).

// FileRecorder streams events into a file in the wire format, buffered in
// columns and batched like the socket recorder.
type FileRecorder struct {
	mu   sync.Mutex
	f    *os.File
	sw   *StreamWriter
	buf  ColumnBatch
	err  error
	done bool
}

// CreateEventLog creates (truncating) an event log file at path.
func CreateEventLog(path string) (*FileRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: creating event log: %w", err)
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	fr := &FileRecorder{f: f, sw: sw}
	fr.buf.Grow(DefaultSocketBatch)
	return fr, nil
}

// Record buffers the event, flushing full batches to the file. I/O errors
// are sticky and surfaced by Close.
func (fr *FileRecorder) Record(e Event) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.err != nil || fr.done {
		return
	}
	fr.buf.Append(e)
	if fr.buf.Len() >= DefaultSocketBatch {
		fr.flushLocked()
	}
}

// RecordBatch buffers the whole batch under one lock acquisition, flushing
// at the usual batch boundary.
func (fr *FileRecorder) RecordBatch(batch []Event) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.err != nil || fr.done {
		return
	}
	fr.buf.AppendEvents(batch)
	if fr.buf.Len() >= DefaultSocketBatch {
		fr.flushLocked()
	}
}

func (fr *FileRecorder) flushLocked() {
	if err := fr.sw.WriteColumns(&fr.buf); err != nil && fr.err == nil {
		fr.err = err
	}
	fr.buf.Reset()
}

// Close flushes the tail, writes the end-of-stream marker and closes the
// file. It is idempotent and returns the first I/O error encountered.
func (fr *FileRecorder) Close() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.done {
		return fr.err
	}
	fr.done = true
	fr.flushLocked()
	if err := fr.sw.Close(); err != nil && fr.err == nil {
		fr.err = err
	}
	if err := fr.f.Close(); err != nil && fr.err == nil {
		fr.err = err
	}
	return fr.err
}
