package core

import (
	"bytes"
	"encoding/json"
	"sort"

	"dsspy/internal/metrics"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Fleet merge: reports from many processes — or many windows of one daemon
// tenant — fold into a single view. The algebra is deliberately simple so it
// is trustworthy at fleet scale:
//
//   - Instance identity is (origin, instance id). Origins never collide
//     across processes (the daemon stamps each window "tenant#N", the CLI
//     stamps files), and ids are never renumbered, so merging is a keyed
//     union.
//   - Two rows with the same identity are either duplicates (identical
//     content — shards of one session overlapping) or a conflict (the same
//     origin reused for different data). Conflicts resolve by a total order:
//     more events wins, ties break on the larger snapshot encoding. Picking
//     a deterministic winner — rather than trying to fold two finished
//     analyses — keeps the merge associative, commutative and idempotent:
//     merge(a, merge(b, c)) == merge(merge(a, b), c) == merge over any
//     permutation, which the property tests assert over the whole corpus.
//   - Sampling provenance combines conservatively, outside the winner
//     logic: the equality witness strips bounds and sampling records (two
//     rows that differ only in how they were sampled are the same finding),
//     and after winner selection each row's detection bounds are widened to
//     the per-key maximum across every input row. A merge can only widen a
//     confidence bound, never narrow it.
//
// Merging shards of one session (same origin, disjoint instances, shared
// registry) therefore reproduces the single-collector report byte for byte.

// MergeStats describes what a merge folded.
type MergeStats struct {
	Reports    int // input reports
	Instances  int // distinct (origin, id) rows in the merged view
	Duplicates int // identical same-identity rows folded into one
	Conflicts  int // same-identity rows with different content, resolved by the total order
}

type mergeKey struct {
	origin string
	id     trace.InstanceID
}

// MergeReports folds any number of reports into one fleet view. Inputs are
// not mutated. Instances and registry rows are keyed by (origin, id) — a
// report-level Origin is inherited by rows that carry none — and the merged
// report is ordered by (origin, id), so the output is independent of input
// order.
func MergeReports(reports ...*Report) (*Report, MergeStats) {
	ms := MergeStats{Reports: len(reports)}

	type row struct {
		ir *InstanceResult
		// enc is the snapshot encoding, the conflict tiebreak and equality
		// witness. It is computed only once a second row hits the same key:
		// rows with distinct identities (every daemon window, every process)
		// never need one.
		enc []byte
	}
	rows, regs := 0, 0
	for _, rep := range reports {
		if rep != nil {
			rows += len(rep.Instances)
			regs += len(rep.Registered)
		}
	}
	instances := make(map[mergeKey]row, rows)
	// Per-key sampling provenance, accumulated independently of winner
	// selection: the maximum detection bound across every input row, and a
	// deterministic representative sampling record (see betterSampling).
	bounds := make(map[mergeKey]float64)
	sampled := make(map[mergeKey]*sample.InstanceSampling)
	type regRow struct {
		inst trace.Instance
		enc  []byte // lazy, like row.enc
	}
	registry := make(map[mergeKey]regRow, regs)

	for _, rep := range reports {
		if rep == nil {
			continue
		}
		for _, ir := range rep.Instances {
			origin := ir.Origin
			if origin == "" {
				origin = rep.Origin
			}
			// Rows are copied so the merged view owns its Origin stamps.
			cp := *ir
			cp.Origin = origin
			key := mergeKey{origin, cp.Profile.Instance.ID}
			if b := rowBound(&cp); b > bounds[key] {
				bounds[key] = b
			}
			if cp.Sampling != nil && betterSampling(cp.Sampling, sampled[key]) {
				sampled[key] = cp.Sampling
			}
			have, ok := instances[key]
			if !ok {
				instances[key] = row{ir: &cp}
				continue
			}
			if have.enc == nil {
				have.enc = encodeRow(have.ir)
			}
			enc := encodeRow(&cp)
			if bytes.Equal(have.enc, enc) {
				ms.Duplicates++
			} else {
				ms.Conflicts++
				if betterRow(&cp, enc, have.ir, have.enc) {
					have = row{ir: &cp, enc: enc}
				}
			}
			instances[key] = have
		}
		for i, inst := range rep.Registered {
			origin := rep.Origin
			if rep.RegisteredFrom != nil && i < len(rep.RegisteredFrom) {
				origin = rep.RegisteredFrom[i]
			}
			key := mergeKey{origin, inst.ID}
			have, ok := registry[key]
			if !ok {
				registry[key] = regRow{inst: inst}
				continue
			}
			if have.enc == nil {
				have.enc, _ = json.Marshal(have.inst)
			}
			enc, _ := json.Marshal(inst)
			if !bytes.Equal(enc, have.enc) {
				ms.Conflicts++
				if bytes.Compare(enc, have.enc) > 0 {
					have = regRow{inst: inst, enc: enc}
				}
			}
			registry[key] = have
		}
	}

	keys := make([]mergeKey, 0, len(instances))
	for k := range instances {
		keys = append(keys, k)
	}
	sortKeys(keys)
	merged := &Report{Instances: make([]*InstanceResult, len(keys))}
	events := 0
	for i, k := range keys {
		ir := instances[k].ir
		if b := bounds[k]; b > 0 {
			widenMergedRow(ir, b, sampled[k])
		}
		merged.Instances[i] = ir
		events += ir.Profile.Len()
	}

	regKeys := make([]mergeKey, 0, len(registry))
	for k := range registry {
		regKeys = append(regKeys, k)
	}
	sortKeys(regKeys)
	merged.Registered = make([]trace.Instance, len(regKeys))
	merged.RegisteredFrom = make([]string, len(regKeys))
	for i, k := range regKeys {
		merged.Registered[i] = registry[k].inst
		merged.RegisteredFrom[i] = k.origin
	}

	ms.Instances = len(merged.Instances)
	merged.Stats = &metrics.PipelineStats{Events: events, Instances: len(merged.Instances)}
	return merged, ms
}

func sortKeys(keys []mergeKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].id < keys[j].id
	})
}

// encodeRow is the equality witness and conflict tiebreak: the row's
// snapshot encoding with sampling provenance stripped — bounds combine by
// widening across all input rows, so they must not influence which row wins
// (or whether two rows count as duplicates).
func encodeRow(ir *InstanceResult) []byte {
	si := saveInstance(ir)
	si.Sampling = nil
	if si.Summary != nil && si.Summary.Bound != 0 {
		cp := *si.Summary
		cp.Bound = 0
		si.Summary = &cp
	}
	for _, u := range si.UseCases {
		if u.Bound != 0 {
			ucs := append([]usecase.UseCase(nil), si.UseCases...)
			for i := range ucs {
				ucs[i].Bound = 0
			}
			si.UseCases = ucs
			break
		}
	}
	enc, _ := json.Marshal(si)
	return enc
}

// rowBound is the largest detection bound the row carries anywhere.
func rowBound(ir *InstanceResult) float64 {
	var b float64
	if ir.Sampling != nil {
		b = ir.Sampling.Bound
	}
	if ir.Summary != nil && ir.Summary.Bound > b {
		b = ir.Summary.Bound
	}
	for _, u := range ir.UseCases {
		if u.Bound > b {
			b = u.Bound
		}
	}
	return b
}

// betterSampling is a total order on sampling records (larger bound wins,
// ties break on more observed events, then the lexically larger encoding),
// so the representative record a merged row carries never depends on input
// order.
func betterSampling(a, b *sample.InstanceSampling) bool {
	if b == nil {
		return true
	}
	if a.Bound != b.Bound {
		return a.Bound > b.Bound
	}
	if a.Observed != b.Observed {
		return a.Observed > b.Observed
	}
	ae, _ := json.Marshal(a)
	be, _ := json.Marshal(b)
	return bytes.Compare(ae, be) > 0
}

// widenMergedRow stamps a merged row (already a private copy at the struct
// level) with the per-key sampling provenance: the representative record,
// its bound raised to the per-key maximum, and every detection bound widened
// to at least that. Slices and nested pointers are cloned first — merge
// inputs are never mutated.
func widenMergedRow(ir *InstanceResult, b float64, rec *sample.InstanceSampling) {
	ir.UseCases = append([]usecase.UseCase(nil), ir.UseCases...)
	if ir.Summary != nil {
		cp := *ir.Summary
		ir.Summary = &cp
	}
	if rec != nil {
		cp := *rec
		ir.Sampling = &cp
	} else {
		// A bound without any surviving record (defensive: stamp always
		// writes one) still must not print as exact.
		ir.Sampling = &sample.InstanceSampling{State: "merged"}
	}
	if ir.Sampling.Bound < b {
		ir.Sampling.Bound = b
	}
	widenBounds(ir, b)
}

// betterRow is the conflict total order: more events wins; ties break on the
// lexically larger encoding. Total and deterministic, so the winner never
// depends on merge order.
func betterRow(a *InstanceResult, aEnc []byte, b *InstanceResult, bEnc []byte) bool {
	if an, bn := a.Profile.Len(), b.Profile.Len(); an != bn {
		return an > bn
	}
	return bytes.Compare(aEnc, bEnc) > 0
}
