package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Version-3 event frames: columnar, delta-encoded batches.
//
// The fixed 38-byte event record of v1/v2 spends most of its bytes on
// redundancy — consecutive events in a producer batch have consecutive Seqs,
// usually the same Instance/Op/Thread, and Index/Size values that move by
// small steps. V3 exploits that by encoding each frame column-wise:
//
//	kind      0x01 (frameEvents, shared with v1/v2)
//	uvarint   payload length in bytes (self-delimiting: a salvaging reader
//	          can skip a checksum-failed frame without trusting its contents)
//	payload:
//	    uvarint  count (n, ≤ MaxBatch)
//	    Seq      first value raw uvarint, then n-1 zigzag-uvarint deltas
//	             (zigzag, not plain delta: spill-WAL batches interleave
//	             producers, so Seq is only near-monotonic)
//	    Instance run-length pairs (uvarint run, uvarint value) summing to n
//	    Op       run-length pairs (uvarint run, uvarint value)
//	    Thread   run-length pairs (uvarint run, uvarint value)
//	    Index    n zigzag-uvarint deltas from the previous Index (from 0)
//	    Size     n zigzag-uvarint deltas from the previous Size (from 0)
//	uint32    CRC32-C over the payload bytes
//
// On the workloads in the corpus this is 3–6× fewer bytes per event than the
// v2 fixed-width frame. Registry frames and the end marker are unchanged
// from v2.

// maxV3Payload bounds the declared payload length on the read side. The
// worst legal case (MaxBatch events, every column at max varint width) is
// under 400 KiB; 1 MiB leaves headroom without letting a corrupt length
// provoke a giant allocation.
const maxV3Payload = 1 << 20

// zigzag maps signed deltas to unsigned so small negative steps stay small
// on the wire.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendColumnarBatch encodes events [lo, hi) of b (1 ≤ hi-lo ≤ MaxBatch) as
// a v3 payload, appended to buf. This is the only event encoder: the columns
// are already the frame's native layout, so encoding is six straight column
// walks.
func appendColumnarBatch(buf []byte, b *ColumnBatch, lo, hi int) []byte {
	n := hi - lo
	buf = binary.AppendUvarint(buf, uint64(n))
	// Seq: raw first, zigzag deltas after.
	seqs := b.Seq[lo:hi]
	buf = binary.AppendUvarint(buf, seqs[0])
	prev := seqs[0]
	for _, s := range seqs[1:] {
		buf = binary.AppendUvarint(buf, zigzag(int64(s-prev)))
		prev = s
	}
	// Instance / Op / Thread: run-length pairs.
	inst := b.Instance[lo:hi]
	for i := 0; i < n; {
		j := i + 1
		for j < n && inst[j] == inst[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		buf = binary.AppendUvarint(buf, uint64(inst[i]))
		i = j
	}
	ops := b.Op[lo:hi]
	for i := 0; i < n; {
		j := i + 1
		for j < n && ops[j] == ops[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		buf = binary.AppendUvarint(buf, uint64(ops[i]))
		i = j
	}
	threads := b.Thread[lo:hi]
	for i := 0; i < n; {
		j := i + 1
		for j < n && threads[j] == threads[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		buf = binary.AppendUvarint(buf, uint64(threads[i]))
		i = j
	}
	// Index / Size: zigzag deltas from the previous value.
	var pi int64
	for _, v := range b.Index[lo:hi] {
		buf = binary.AppendUvarint(buf, zigzag(int64(v)-pi))
		pi = int64(v)
	}
	var ps int64
	for _, v := range b.Size[lo:hi] {
		buf = binary.AppendUvarint(buf, zigzag(int64(v)-ps))
		ps = int64(v)
	}
	return buf
}

// writeV3Payload frames the encoded payload in sw.enc: kind, payload length,
// payload, CRC. Event and aggregate frames share this framing.
func (sw *StreamWriter) writeV3Payload(kind byte) error {
	if err := sw.w.WriteByte(kind); err != nil {
		return err
	}
	var ln [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(ln[:], uint64(len(sw.enc)))
	if _, err := sw.w.Write(ln[:k]); err != nil {
		return err
	}
	if _, err := sw.w.Write(sw.enc); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(sw.enc, crcTable))
	_, err := sw.w.Write(sum[:])
	return err
}

// columnarCursor walks the uvarint stream of a v3 payload.
type columnarCursor struct {
	b   []byte
	off int
}

func (c *columnarCursor) uvarint() (uint64, error) {
	v, k := binary.Uvarint(c.b[c.off:])
	if k <= 0 {
		return 0, fmt.Errorf("%w: truncated or overlong uvarint in columnar frame", ErrBadStream)
	}
	c.off += k
	return v, nil
}

// decodeColumnarInto decodes a CRC-verified v3 payload, appending the events
// onto b's columns — the payload layout is the columns, so no Event struct is
// ever built. Structural inconsistencies (counts not adding up, trailing
// bytes) are ErrBadStream: the checksum passed, so the frame is malformed,
// not corrupted. On any error b is restored to its pre-call length.
func decodeColumnarInto(b *ColumnBatch, payload []byte) error {
	base := b.Len()
	if err := decodeColumnarAppend(b, payload); err != nil {
		b.setLen(base)
		return err
	}
	return nil
}

func decodeColumnarAppend(b *ColumnBatch, payload []byte) error {
	c := &columnarCursor{b: payload}
	n64, err := c.uvarint()
	if err != nil {
		return err
	}
	if n64 == 0 || n64 > MaxBatch {
		return fmt.Errorf("%w: columnar batch of %d (max %d)", ErrBadStream, n64, MaxBatch)
	}
	n := int(n64)
	b.Grow(n)
	seq, err := c.uvarint()
	if err != nil {
		return err
	}
	b.Seq = append(b.Seq, seq)
	for i := 1; i < n; i++ {
		d, err := c.uvarint()
		if err != nil {
			return err
		}
		seq += uint64(unzigzag(d))
		b.Seq = append(b.Seq, seq)
	}
	// The three RLE columns.
	for col := 0; col < 3; col++ {
		covered := 0
		for covered < n {
			run, err := c.uvarint()
			if err != nil {
				return err
			}
			if run == 0 || run > uint64(n-covered) {
				return fmt.Errorf("%w: bad run length %d in columnar frame", ErrBadStream, run)
			}
			val, err := c.uvarint()
			if err != nil {
				return err
			}
			switch col {
			case 0:
				for i := 0; i < int(run); i++ {
					b.Instance = append(b.Instance, InstanceID(val))
				}
			case 1:
				for i := 0; i < int(run); i++ {
					b.Op = append(b.Op, Op(val))
				}
			case 2:
				for i := 0; i < int(run); i++ {
					b.Thread = append(b.Thread, ThreadID(val))
				}
			}
			covered += int(run)
		}
	}
	var pi int64
	for i := 0; i < n; i++ {
		d, err := c.uvarint()
		if err != nil {
			return err
		}
		pi += unzigzag(d)
		b.Index = append(b.Index, int(pi))
	}
	var ps int64
	for i := 0; i < n; i++ {
		d, err := c.uvarint()
		if err != nil {
			return err
		}
		ps += unzigzag(d)
		b.Size = append(b.Size, int(ps))
	}
	if c.off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes in columnar frame", ErrBadStream, len(payload)-c.off)
	}
	return nil
}

// readEventFrameV3Into reads a v3 event-frame body (kind byte consumed) —
// payload-length prefix, payload, CRC — appending the decoded events onto b.
// The payload buffer is reused across frames, so a replay loop allocates
// nothing per frame beyond column growth. It returns the number of events
// appended. On checksum mismatch the frame is fully consumed, nothing is
// appended, and the declared count (when parseable) is returned alongside
// ErrChecksum so salvaging readers can account for what the skipped frame
// contained.
func (sr *StreamReader) readEventFrameV3Into(b *ColumnBatch) (int, error) {
	plen, err := sr.readUvarint()
	if err != nil {
		return 0, fmt.Errorf("trace: reading frame length: %w", err)
	}
	if plen == 0 || plen > maxV3Payload {
		return 0, fmt.Errorf("%w: columnar payload of %d bytes (max %d)", ErrBadStream, plen, maxV3Payload)
	}
	if uint64(cap(sr.pay)) < plen {
		// Grow with headroom: payload sizes creep up a few bytes per frame
		// (the leading raw Seq gets larger), and an exact-fit scratch would
		// reallocate on nearly every frame.
		sr.pay = make([]byte, plen+plen/2)
	}
	payload := sr.pay[:plen]
	if err := sr.readFull(payload); err != nil {
		return 0, fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
	}
	// sr.buf doubles as checksum scratch: a local [4]byte would escape
	// through the io.ReadFull interface call and cost one heap allocation
	// per frame.
	sum := sr.buf[:4]
	if err := sr.readFull(sum); err != nil {
		return 0, fmt.Errorf("trace: reading frame checksum: %w", noEOF(err))
	}
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(payload, crcTable) {
		// The payload is untrustworthy; recover the declared count if it
		// parses so skipped-event accounting still works.
		if n, k := binary.Uvarint(payload); k > 0 && n > 0 && n <= MaxBatch {
			return int(n), ErrChecksum
		}
		return 0, ErrChecksum
	}
	base := b.Len()
	if err := decodeColumnarInto(b, payload); err != nil {
		return 0, err
	}
	return b.Len() - base, nil
}
