package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format for shipping events to an out-of-process collector.
//
// The stream starts with a magic header, then carries frames. Each frame is
// either an event batch, an instance-registry record, or the end-of-stream
// marker. All integers are little-endian. Events are fixed-size 38-byte
// records:
//
//	seq      uint64
//	instance uint32
//	op       uint8
//	pad      uint8
//	index    int64
//	size     int64
//	thread   uint32
//	(reserved uint32)
//
// Version 1 ("DSSPY1\n") is the original format. Version 2 ("DSSPY2\n")
// differs in two ways, both motivated by crash recovery:
//
//   - event-batch frames carry a trailing CRC32-C checksum over the count and
//     payload bytes, so a salvaging reader can tell a corrupt frame from a
//     good one and skip it instead of trusting garbage;
//   - registry strings use a uvarint length prefix instead of uint16, so
//     strings longer than 64 KiB round-trip instead of being silently
//     truncated.
//
// Version 3 ("DSSPY3\n") replaces the fixed-width event frames with columnar
// delta-encoded batches (see wirev3.go) — 3–6× fewer bytes per event on the
// socket, the WAL spill, and session logs. Registry frames and the framing
// itself are unchanged from v2.
//
// Writers emit version 3 only; readers detect the version from the magic and
// accept all three, so logs and live streams produced before the bumps stay
// loadable.
const (
	wireMagicV1 = "DSSPY1\n"
	wireMagicV2 = "DSSPY2\n"
	wireMagicV3 = "DSSPY3\n"
	frameEvents = byte(0x01)
	frameEnd    = byte(0xFF)
	eventSize   = 8 + 4 + 1 + 1 + 8 + 8 + 4 + 4
	// MaxBatch is the largest number of events in one frame.
	MaxBatch = 4096
	// maxWireString bounds registry-string lengths on the read side, so a
	// corrupt uvarint cannot provoke a giant allocation.
	maxWireString = 1 << 20
)

// ErrBadStream is returned when the wire stream is malformed.
var ErrBadStream = errors.New("trace: malformed event stream")

// ErrChecksum is returned when an event-batch frame fails its CRC32 check.
// It wraps ErrBadStream, but salvaging readers treat it specially: a
// checksum failure corrupts one frame, not the framing, so the reader can
// skip the frame and keep decoding.
var ErrChecksum = fmt.Errorf("%w: frame checksum mismatch", ErrBadStream)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we care about.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFixed scatters one fixed-width v1/v2 event record onto the columns;
// the caller has grown the batch.
func (b *ColumnBatch) appendFixed(rec []byte) {
	b.Seq = append(b.Seq, binary.LittleEndian.Uint64(rec[0:]))
	b.Instance = append(b.Instance, InstanceID(binary.LittleEndian.Uint32(rec[8:])))
	b.Op = append(b.Op, Op(rec[12]))
	b.Index = append(b.Index, int(int64(binary.LittleEndian.Uint64(rec[14:]))))
	b.Size = append(b.Size, int(int64(binary.LittleEndian.Uint64(rec[22:]))))
	b.Thread = append(b.Thread, ThreadID(binary.LittleEndian.Uint32(rec[30:])))
}

// StreamWriter encodes event batches onto an io.Writer in the version-3 wire
// format. It is not safe for concurrent use; the socket recorder serializes
// access.
type StreamWriter struct {
	w   *bufio.Writer
	enc []byte // v3 payload scratch
}

// NewStreamWriter writes the version-3 stream header and returns a writer.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(wireMagicV3); err != nil {
		return nil, fmt.Errorf("trace: writing stream header: %w", err)
	}
	return &StreamWriter{w: bw}, nil
}

// WriteColumns writes a column batch as v3 event frames, splitting at
// MaxBatch. The columns are encoded directly: no Event struct is built
// anywhere on the write path. Callers holding an []Event scatter it once
// with ColumnBatch.AppendEvents.
func (sw *StreamWriter) WriteColumns(b *ColumnBatch) error {
	if b == nil {
		return nil
	}
	total := b.Len()
	for lo := 0; lo < total; lo += MaxBatch {
		hi := min(lo+MaxBatch, total)
		sw.enc = appendColumnarBatch(sw.enc[:0], b, lo, hi)
		if err := sw.writeV3Payload(frameEvents); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered frames to the underlying writer. Recorders that need
// crash-safety (the spill WAL) flush after every batch so a dying process
// loses at most the frame being written.
func (sw *StreamWriter) Flush() error { return sw.w.Flush() }

// Close writes the end-of-stream frame and flushes. The underlying writer is
// not closed.
func (sw *StreamWriter) Close() error {
	if err := sw.w.WriteByte(frameEnd); err != nil {
		return err
	}
	return sw.w.Flush()
}

// StreamReader decodes a wire stream, version 1, 2 or 3.
type StreamReader struct {
	r       *bufio.Reader
	buf     []byte
	pay     []byte // v3 payload scratch, reused across frames
	version int
	off     int64 // bytes consumed from the stream so far
	// OnAggregate, when set, receives every decoded aggregate frame (v3
	// lazy-aggregation records). Event-only read loops otherwise skip them:
	// aggregates are advisory for readers — conservation was settled on the
	// producer side — so dropping them loses bound tightening, not events.
	OnAggregate func(AggRecord)
}

// NewStreamReader validates the stream header and returns a reader. All
// format versions are accepted; Version reports which one the stream uses.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(wireMagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading stream header: %w", err)
	}
	version := 0
	switch string(magic) {
	case wireMagicV1:
		version = 1
	case wireMagicV2:
		version = 2
	case wireMagicV3:
		version = 3
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadStream, magic)
	}
	return &StreamReader{
		r:       br,
		buf:     make([]byte, eventSize),
		version: version,
		off:     int64(len(magic)),
	}, nil
}

// Version returns the detected format version (1, 2 or 3).
func (sr *StreamReader) Version() int { return sr.version }

// Offset returns the number of stream bytes consumed so far, including the
// header. Salvaging loaders use it to report how much of a damaged file was
// decodable.
func (sr *StreamReader) Offset() int64 { return sr.off }

func (sr *StreamReader) readByte() (byte, error) {
	b, err := sr.r.ReadByte()
	if err == nil {
		sr.off++
	}
	return b, err
}

func (sr *StreamReader) readFull(buf []byte) error {
	n, err := io.ReadFull(sr.r, buf)
	sr.off += int64(n)
	return err
}

// entry is one decoded frame: the kind byte plus the payload that matches it.
// An event frame's payload is not in the entry: readEntry decodes it onto
// the caller's column batch and records only its event count.
type entry struct {
	kind     byte
	n        int       // kind == frameEvents: events decoded (declared, on ErrChecksum)
	instance Instance  // kind == frameInstance
	hello    Hello     // kind == frameHello
	agg      AggRecord // kind == frameAggregate
}

// readEntry decodes the next frame of any kind, appending an event frame's
// events onto b. It returns io.EOF only when the stream ends cleanly before
// a kind byte; a stream cut mid-frame comes back as io.ErrUnexpectedEOF. A
// checksum failure on an event or aggregate frame returns ErrChecksum with
// the frame fully consumed and nothing appended, so callers may skip it and
// keep reading; an event frame's declared count is still in n. Aggregate
// frames are additionally delivered to OnAggregate when set.
func (sr *StreamReader) readEntry(b *ColumnBatch) (entry, error) {
	kind, err := sr.readByte()
	if err != nil {
		return entry{}, err
	}
	switch kind {
	case frameEnd:
		return entry{kind: frameEnd}, nil
	case frameEvents:
		n, err := sr.readEventFrameInto(b)
		return entry{kind: frameEvents, n: n}, err
	case frameInstance:
		inst, err := sr.readInstance()
		return entry{kind: frameInstance, instance: inst}, err
	case frameHello:
		h, err := sr.readHello()
		return entry{kind: frameHello, hello: h}, err
	case frameAggregate:
		rec, err := sr.readAggregate()
		if err == nil && sr.OnAggregate != nil {
			sr.OnAggregate(rec)
		}
		return entry{kind: frameAggregate, agg: rec}, err
	default:
		return entry{}, fmt.Errorf("%w: unknown frame kind 0x%02x", ErrBadStream, kind)
	}
}

// readEventFrameInto decodes the body of an event-batch frame (the kind byte
// is already consumed) onto b's columns, returning the number of events
// appended. It dispatches on the stream version: columnar for v3, whose
// payload is the columns, and fixed-width records for v1/v2, each scattered
// straight onto the columns. No Event is built for either. On any error
// nothing is appended; a CRC mismatch comes back as ErrChecksum with the
// frame consumed and the declared event count returned for skipped-frame
// accounting.
func (sr *StreamReader) readEventFrameInto(b *ColumnBatch) (int, error) {
	if sr.version >= 3 {
		return sr.readEventFrameV3Into(b)
	}
	// sr.buf is the record scratch; its first four bytes hold the count and
	// later the checksum (a local array would escape through io.ReadFull).
	cnt := sr.buf[:4]
	if err := sr.readFull(cnt); err != nil {
		return 0, fmt.Errorf("trace: reading frame length: %w", noEOF(err))
	}
	n := int(binary.LittleEndian.Uint32(cnt))
	if n > MaxBatch {
		return 0, fmt.Errorf("%w: batch of %d exceeds max %d", ErrBadStream, n, MaxBatch)
	}
	crc := crc32.Update(0, crcTable, cnt)
	base := b.Len()
	b.Grow(n)
	for i := 0; i < n; i++ {
		if err := sr.readFull(sr.buf); err != nil {
			b.setLen(base)
			return 0, fmt.Errorf("trace: reading event %d/%d: %w", i, n, noEOF(err))
		}
		crc = crc32.Update(crc, crcTable, sr.buf)
		b.appendFixed(sr.buf)
	}
	if sr.version >= 2 {
		sum := sr.buf[:4]
		if err := sr.readFull(sum); err != nil {
			b.setLen(base)
			return 0, fmt.Errorf("trace: reading frame checksum: %w", noEOF(err))
		}
		if binary.LittleEndian.Uint32(sum) != crc {
			b.setLen(base)
			return n, ErrChecksum
		}
	}
	return n, nil
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a frame body, a
// clean EOF still means the frame was cut short.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadBatch returns the next batch of events, or io.EOF after the
// end-of-stream frame. It is ReadColumns inflated to []Event, for consumers
// that want structs (the file log, tests).
func (sr *StreamReader) ReadBatch() ([]Event, error) {
	var b ColumnBatch
	n, err := sr.ReadColumns(&b)
	if err != nil {
		return nil, err
	}
	return b.Events(make([]Event, 0, n)), nil
}

// ReadColumns appends the next event batch onto b's columns, returning the
// number of events appended, or io.EOF after the end-of-stream frame.
// Registry frames are rejected; hello and aggregate frames are skipped (the
// latter after feeding OnAggregate). No Event struct is built, and reusing b
// across calls makes the steady-state read loop allocation-free. A
// checksum-failed frame returns ErrChecksum with its declared count.
func (sr *StreamReader) ReadColumns(b *ColumnBatch) (int, error) {
	for {
		ent, err := sr.readEntry(b)
		if err != nil {
			return ent.n, err
		}
		switch ent.kind {
		case frameEnd:
			return 0, io.EOF
		case frameEvents:
			return ent.n, nil
		case frameHello, frameAggregate:
			// Identity metadata / advisory aggregates, not event payload.
			continue
		default:
			return 0, fmt.Errorf("%w: unexpected frame kind 0x%02x in event stream", ErrBadStream, ent.kind)
		}
	}
}

// ReadAll drains the stream into one slice: ReadColumns onto one batch,
// inflated once at the end. On an error it returns the events of every
// frame decoded before it.
func (sr *StreamReader) ReadAll() ([]Event, error) {
	var b ColumnBatch
	for {
		if _, err := sr.ReadColumns(&b); err != nil {
			all := b.Events(nil)
			if err == io.EOF {
				err = nil
			}
			return all, err
		}
	}
}
