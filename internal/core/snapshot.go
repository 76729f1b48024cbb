package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"dsspy/internal/metrics"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Report snapshots: a lossless JSON codec over the analysis *outcome* — not
// the trace. A saved report round-trips through LoadReport into a Report
// whose Write output is byte-identical to the original's, which is what the
// daemon's checkpoint/restore and `dsspy -merge` both need. The trace itself
// is not retained (profiles come back event-free via profile.NewStreamed),
// so a snapshot is O(instances), never O(events).

// snapshotVersion is the codec version SaveReport writes; a loader rejects
// versions it does not know instead of guessing. Version 2 lists each
// pattern as its compact record ({"Start","End","Cover","Type"}); version 1
// listed it as the segmenter's run ({"Type","Run":{...}}) and is still read,
// each run converted to its record on load, so checkpoints written before
// the change keep loading.
const snapshotVersion = 2

type savedInstance struct {
	Origin   string               `json:"origin,omitempty"`
	Instance trace.Instance       `json:"instance"`
	Events   int                  `json:"events"`
	Stats    *profile.Stats       `json:"stats"`
	Summary  *pattern.Summary     `json:"summary"`
	UseCases []usecase.UseCase    `json:"use_cases,omitempty"`
	Regular  bool                 `json:"regular,omitempty"`
	Shared   profile.SharedAccess `json:"shared"`
	// Contention carries the cross-thread summary for multi-thread
	// instances; omitted (nil) for single-threaded ones and absent from
	// snapshots written before it existed — loaders treat both as "no
	// cross-thread state".
	Contention *profile.Contention `json:"contention,omitempty"`
	// Sampling carries the adaptive-sampling record for rows whose stream
	// was lossy; omitted (nil) for full-fidelity rows and absent from
	// snapshots written before it existed — loaders treat both as exact.
	Sampling *sample.InstanceSampling `json:"sampling,omitempty"`
}

type savedReport struct {
	Version        int              `json:"version"`
	Origin         string           `json:"origin,omitempty"`
	Registered     []trace.Instance `json:"registered"`
	RegisteredFrom []string         `json:"registered_from,omitempty"`
	Instances      []savedInstance  `json:"instances"`
}

func saveInstance(ir *InstanceResult) savedInstance {
	return savedInstance{
		Origin:     ir.Origin,
		Instance:   ir.Profile.Instance,
		Events:     ir.Profile.Len(),
		Stats:      ir.Profile.Stats(),
		Summary:    ir.Summary,
		UseCases:   ir.UseCases,
		Regular:    ir.Regular,
		Shared:     ir.Shared,
		Contention: ir.Contention,
		Sampling:   ir.Sampling,
	}
}

func (si savedInstance) restore() *InstanceResult {
	p := profile.NewStreamed(si.Instance, si.Events, si.Stats)
	sum := si.Summary
	if sum == nil {
		sum = &pattern.Summary{}
	}
	if pats := sum.Patterns; cap(pats) > len(pats) {
		// The decoder grows the list as it goes; a restored window keeps
		// it at its length, as a closed window does.
		sum.Patterns = slices.Clone(pats)
	}
	return &InstanceResult{
		Origin:     si.Origin,
		Profile:    p,
		Summary:    sum,
		UseCases:   si.UseCases,
		Regular:    si.Regular,
		Shared:     si.Shared,
		Contention: si.Contention,
		Sampling:   si.Sampling,
	}
}

// SaveReport writes the report's snapshot encoding.
func SaveReport(w io.Writer, r *Report) error {
	sr := savedReport{
		Version:        snapshotVersion,
		Origin:         r.Origin,
		Registered:     r.Registered,
		RegisteredFrom: r.RegisteredFrom,
		Instances:      make([]savedInstance, len(r.Instances)),
	}
	for i, ir := range r.Instances {
		sr.Instances[i] = saveInstance(ir)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&sr)
}

// Version 1's shapes: savedReportV1 is savedReport with each summary's
// pattern list in the run-shaped form; the outer fields shadow the embedded
// ones of the same JSON name.
type (
	patternV1 struct {
		Type pattern.Type
		Run  profile.Run
	}
	summaryV1 struct {
		pattern.Summary
		Patterns []patternV1
	}
	savedInstanceV1 struct {
		savedInstance
		Summary *summaryV1 `json:"summary"`
	}
	savedReportV1 struct {
		savedReport
		Instances []savedInstanceV1 `json:"instances"`
	}
)

// upgrade converts a version-1 snapshot to the current shape, recording
// each listed run as its pattern.
func (old *savedReportV1) upgrade() savedReport {
	sr := old.savedReport
	sr.Instances = make([]savedInstance, len(old.Instances))
	for i, oi := range old.Instances {
		si := oi.savedInstance
		if oi.Summary != nil {
			sum := oi.Summary.Summary
			if oi.Summary.Patterns != nil {
				sum.Patterns = make([]pattern.Pattern, len(oi.Summary.Patterns))
				for k := range oi.Summary.Patterns {
					p := &oi.Summary.Patterns[k]
					sum.Patterns[k] = pattern.New(p.Type, &p.Run)
				}
			}
			si.Summary = &sum
		}
		sr.Instances[i] = si
	}
	return sr
}

// LoadReport reads one snapshot, of the current version or version 1, back
// into a Report. The result carries a fresh minimal PipelineStats (the
// original run's timings are not part of the findings and are not
// preserved).
func LoadReport(r io.Reader) (*Report, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decoding report snapshot: %w", err)
	}
	// A version-1 pattern decodes into the current record as its type
	// alone (the run is an unknown field), so the version is read first
	// and a version-1 snapshot decoded again in its own shape.
	var sr savedReport
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("core: decoding report snapshot: %w", err)
	}
	switch sr.Version {
	case snapshotVersion:
	case 1:
		var old savedReportV1
		if err := json.Unmarshal(raw, &old); err != nil {
			return nil, fmt.Errorf("core: decoding report snapshot: %w", err)
		}
		sr = old.upgrade()
	default:
		return nil, fmt.Errorf("core: report snapshot version %d not supported (want 1 or %d)", sr.Version, snapshotVersion)
	}
	if sr.RegisteredFrom != nil && len(sr.RegisteredFrom) != len(sr.Registered) {
		return nil, fmt.Errorf("core: report snapshot registry origins (%d) do not match registry (%d)",
			len(sr.RegisteredFrom), len(sr.Registered))
	}
	rep := &Report{
		Origin:         sr.Origin,
		Registered:     sr.Registered,
		RegisteredFrom: sr.RegisteredFrom,
		Instances:      make([]*InstanceResult, len(sr.Instances)),
	}
	events := 0
	for i, si := range sr.Instances {
		rep.Instances[i] = si.restore()
		events += si.Events
	}
	rep.Stats = &metrics.PipelineStats{Events: events, Instances: len(rep.Instances)}
	return rep, nil
}

// SaveReportFile writes the snapshot atomically: temp file, then rename, so
// a crash mid-write never leaves a torn checkpoint behind.
func SaveReportFile(path string, r *Report) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: writing report snapshot: %w", err)
	}
	if err := SaveReport(f, r); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing report snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing report snapshot: %w", err)
	}
	return nil
}

// LoadReportFile reads a snapshot written by SaveReportFile.
func LoadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening report snapshot: %w", err)
	}
	defer f.Close()
	return LoadReport(f)
}
