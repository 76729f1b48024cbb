package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Self-contained session logs: the event stream plus the instance registry,
// so a saved profiling run can be re-analyzed later (or elsewhere) without
// the producing process — completing the post-mortem story of §IV. The
// registry is appended as metadata frames after the events.

// frameInstance carries one registry record.
const frameInstance = byte(0x02)

// SaveSessionColumns writes the session's registry and a column batch to
// path. The batch is encoded straight into v3 frames; no Event struct is
// built anywhere on the save path. Callers holding an []Event scatter it once
// with ColumnBatch.AppendEvents.
func SaveSessionColumns(path string, s *Session, cols *ColumnBatch) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating session log: %w", err)
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := sw.WriteColumns(cols); err != nil {
		f.Close()
		return err
	}
	if err := sw.WriteInstances(s.Instances()); err != nil {
		f.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteInstances appends registry frames for the given instances. Producers
// that ship events over a socket call this (via FinishSession) so the
// collector side can rebuild a replay session without the producing process.
func (sw *StreamWriter) WriteInstances(instances []Instance) error {
	for _, inst := range instances {
		if err := sw.writeInstance(inst); err != nil {
			return err
		}
	}
	return nil
}

// writeInstance emits one registry frame.
func (sw *StreamWriter) writeInstance(inst Instance) error {
	if err := sw.w.WriteByte(frameInstance); err != nil {
		return err
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(inst.ID))
	hdr[4] = byte(inst.Kind)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(inst.Site.Line))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range []string{inst.TypeName, inst.Label, inst.Site.File, inst.Site.Function} {
		if err := sw.writeString(s); err != nil {
			return err
		}
	}
	return nil
}

// writeString emits a uvarint length prefix followed by the bytes. Version 1
// used a uint16 prefix and silently truncated longer strings, which corrupted
// the registry on round-trip; the uvarint prefix removes the limit (the read
// side still bounds lengths to keep corrupt streams from provoking giant
// allocations).
func (sw *StreamWriter) writeString(s string) error {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(s)))
	if _, err := sw.w.Write(n[:k]); err != nil {
		return err
	}
	_, err := sw.w.WriteString(s)
	return err
}

// readString decodes one length-prefixed string: uint16 prefix in version-1
// streams, uvarint in version 2.
func (sr *StreamReader) readString() (string, error) {
	var length uint64
	if sr.version == 1 {
		var n [2]byte
		if err := sr.readFull(n[:]); err != nil {
			return "", noEOF(err)
		}
		length = uint64(binary.LittleEndian.Uint16(n[:]))
	} else {
		var err error
		if length, err = sr.readUvarint(); err != nil {
			return "", err
		}
	}
	if length > maxWireString {
		return "", fmt.Errorf("%w: string of %d bytes exceeds max %d", ErrBadStream, length, maxWireString)
	}
	buf := make([]byte, length)
	if err := sr.readFull(buf); err != nil {
		return "", noEOF(err)
	}
	return string(buf), nil
}

func (sr *StreamReader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := sr.readByte()
		if err != nil {
			return 0, noEOF(err)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: uvarint overflow", ErrBadStream)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflow", ErrBadStream)
}

// readInstance decodes one registry frame body.
func (sr *StreamReader) readInstance() (Instance, error) {
	var hdr [9]byte
	if err := sr.readFull(hdr[:]); err != nil {
		return Instance{}, fmt.Errorf("trace: reading instance frame: %w", noEOF(err))
	}
	inst := Instance{
		ID:   InstanceID(binary.LittleEndian.Uint32(hdr[0:])),
		Kind: Kind(hdr[4]),
	}
	inst.Site.Line = int(binary.LittleEndian.Uint32(hdr[5:]))
	var err error
	if inst.TypeName, err = sr.readString(); err != nil {
		return Instance{}, err
	}
	if inst.Label, err = sr.readString(); err != nil {
		return Instance{}, err
	}
	if inst.Site.File, err = sr.readString(); err != nil {
		return Instance{}, err
	}
	if inst.Site.Function, err = sr.readString(); err != nil {
		return Instance{}, err
	}
	return inst, nil
}

// LoadSessionColumns reads a session log as column batches: the replay
// session plus the event frames normalized into ascending, pairwise-disjoint
// Seq-sorted runs ready for in-order folding (StreamAnalyzer.FeedColumns).
// On a v3 log no []Event is ever materialized — each frame's payload is
// decoded onto columns, and the common already-ordered log is returned
// without a merge copy. An events-only log (FileRecorder) loads into a
// session with an empty registry. It is strict: any damage fails the load;
// use RecoverSessionColumns for damaged logs.
func LoadSessionColumns(path string) (*Session, []*ColumnBatch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: opening session log: %w", err)
	}
	defer f.Close()
	sr, err := NewStreamReader(f)
	if err != nil {
		return nil, nil, err
	}

	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	var batches []*ColumnBatch
	b := &ColumnBatch{} // the next event frame's batch
	for {
		ent, err := sr.readEntry(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		switch ent.kind {
		case frameEvents:
			batches = append(batches, b)
			b = &ColumnBatch{}
		case frameInstance:
			inst := ent.instance
			id := s.Register(inst.Kind, inst.TypeName, inst.Label, 0)
			if id != inst.ID {
				return nil, nil, fmt.Errorf("%w: non-contiguous registry (got id %d, want %d)",
					ErrBadStream, id, inst.ID)
			}
			s.setSite(id, inst.Site)
		}
		// The end marker precedes the registry, so reading goes on to the
		// true EOF; hello and aggregate frames (the latter fed to
		// OnAggregate when set) carry nothing a replay folds.
	}
	runs, _ := NormalizeColumnRuns(batches)
	return s, runs, nil
}

// setSite overwrites a registered instance's call site with the saved one.
func (s *Session) setSite(id InstanceID, site Site) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id != 0 && int(id) <= len(s.instances) {
		s.instances[id-1].Site = site
	}
}

// plausibleRegistryID reports whether a shipped registry record naming id
// may extend a session, given the number of events and registry records its
// stream carried before it. A producer writes its registry in ID order after
// its events, so a genuine record names at most one ID past that count. A
// damaged or hostile frame naming a far larger ID (say 8·10⁸) would make
// restoreInstance allocate a placeholder for every ID in the gap; readers
// skip such a record and count it with the corrupt frames.
func plausibleRegistryID(id InstanceID, seen int) bool {
	return uint64(id) <= uint64(seen)+1
}

// restoreInstance places an instance at its saved ID, creating placeholder
// entries for any gap. Salvaging loaders use it: a truncated log may be
// missing registry frames, and the surviving ones must still land at the IDs
// the events reference. Wire readers bound the gap with plausibleRegistryID
// before they call it.
func (s *Session) restoreInstance(inst Instance) {
	if inst.ID == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for int(inst.ID) > len(s.instances) {
		s.instances = append(s.instances, Instance{ID: InstanceID(len(s.instances) + 1)})
	}
	s.instances[inst.ID-1] = inst
}

// RestoreInstance places a saved instance at its original ID, creating
// placeholder entries for any gap. Consumers that rebuild sessions from
// externally shipped registries — the daemon's per-tenant windows, checkpoint
// restore — use it to keep event→instance references intact.
func (s *Session) RestoreInstance(inst Instance) { s.restoreInstance(inst) }
