package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"sort"
	"strings"

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

// rowKey is an instance row's merge key: a row without an Origin inherits
// its report's.
func rowKey(rep *Report, ir *InstanceResult) mergeKey {
	origin := ir.Origin
	if origin == "" {
		origin = rep.Origin
	}
	return mergeKey{origin, ir.Profile.Instance.ID}
}

// registryKey is the merge key of registry row i: RegisteredFrom names its
// origin in merged reports, the report's Origin otherwise.
func registryKey(rep *Report, i int) mergeKey {
	origin := rep.Origin
	if rep.RegisteredFrom != nil && i < len(rep.RegisteredFrom) {
		origin = rep.RegisteredFrom[i]
	}
	return mergeKey{origin, rep.Registered[i].ID}
}

func (k mergeKey) compare(o mergeKey) int {
	if c := strings.Compare(k.origin, o.origin); c != 0 {
		return c
	}
	return cmp.Compare(k.id, o.id)
}

// MergeReports folds any number of reports into one fleet view. Inputs are
// not mutated, and the merged view may share rows with them: rows are
// read-only once in a report (FilterMinConfidence and AttachEvents replace a
// row rather than change it). Instances and registry rows are keyed by
// (origin, id) — a report-level Origin is inherited by rows that carry none —
// and the merged report is ordered by (origin, id), so the output is
// independent of input order.
//
// When each input lists its rows in key order and no two inputs' key ranges
// overlap — every set of daemon windows, every set of single-origin reports
// with distinct origins — no key repeats, and the merged view is the
// inputs' rows concatenated in key order, built without maps or a sort of
// the rows. Otherwise the merge takes the keyed path.
func MergeReports(reports ...*Report) (*Report, MergeStats) {
	rows, regs, ok := disjointInputs(reports)
	if !ok {
		return mergeKeyed(reports)
	}
	merged := mergeDisjoint(rows, regs)
	return merged, MergeStats{Reports: len(reports), Instances: len(merged.Instances)}
}

// disjointInputs orders the reports for mergeDisjoint: those with instance
// rows and those with registry rows, each in key order. It reports false
// when some key repeats or some report lists its rows out of key order.
func disjointInputs(reports []*Report) (rows, regs []*Report, ok bool) {
	rows, ok = disjointSpans(reports, func(rep *Report) int { return len(rep.Instances) },
		func(rep *Report, i int) mergeKey { return rowKey(rep, rep.Instances[i]) })
	if !ok {
		return nil, nil, false
	}
	regs, ok = disjointSpans(reports, func(rep *Report) int { return len(rep.Registered) }, registryKey)
	return rows, regs, ok
}

// disjointSpans orders the reports that have rows (of the kind n counts and
// key names) so that concatenating their rows lists every key once, in
// increasing order. It reports false when there is no such order: some
// report lists its rows out of key order, or two reports' key ranges
// overlap.
func disjointSpans(reports []*Report, n func(*Report) int, key func(*Report, int) mergeKey) ([]*Report, bool) {
	type span struct {
		first, last mergeKey
		rep         *Report
	}
	spans := make([]span, 0, len(reports))
	for _, rep := range reports {
		if rep == nil || n(rep) == 0 {
			continue
		}
		prev := key(rep, 0)
		for i := 1; i < n(rep); i++ {
			k := key(rep, i)
			if prev.compare(k) >= 0 {
				return nil, false
			}
			prev = k
		}
		spans = append(spans, span{key(rep, 0), prev, rep})
	}
	slices.SortFunc(spans, func(a, b span) int { return a.first.compare(b.first) })
	out := make([]*Report, len(spans))
	for i, sp := range spans {
		if i > 0 && spans[i-1].last.compare(sp.first) >= 0 {
			return nil, false
		}
		out[i] = sp.rep
	}
	return out, true
}

// mergeDisjoint is the merge of inputs whose keys never repeat, given the
// reports with rows and with registry rows in key order (disjointSpans).
// Each row is its own key's only row: it gets its Origin stamped and its
// detection bounds widened to its own largest, as the keyed path does for a
// key with one row. A row that already carries its origin and no bound —
// every row of a closed daemon window — would come out unchanged, so the
// merged view shares it instead of copying it; the others are copied.
func mergeDisjoint(rows, regs []*Report) *Report {
	n, copies := 0, 0
	for _, rep := range rows {
		n += len(rep.Instances)
		for _, ir := range rep.Instances {
			if !mergesAsIs(rep, ir) {
				copies++
			}
		}
	}
	owned := make([]InstanceResult, copies)
	merged := &Report{Instances: make([]*InstanceResult, n)}
	events, k := 0, 0
	for _, rep := range rows {
		for _, ir := range rep.Instances {
			if !mergesAsIs(rep, ir) {
				cp := &owned[0]
				owned = owned[1:]
				*cp = *ir
				cp.Origin = rowKey(rep, ir).origin
				if b := rowBound(cp); b > 0 {
					widenRow(cp, b, cp.Sampling)
				}
				ir = cp
			}
			merged.Instances[k] = ir
			events += ir.Profile.Len()
			k++
		}
	}

	n = 0
	for _, rep := range regs {
		n += len(rep.Registered)
	}
	merged.Registered = make([]trace.Instance, 0, n)
	merged.RegisteredFrom = make([]string, 0, n)
	for _, rep := range regs {
		merged.Registered = append(merged.Registered, rep.Registered...)
		for i := range rep.Registered {
			merged.RegisteredFrom = append(merged.RegisteredFrom, registryKey(rep, i).origin)
		}
	}
	merged.Stats = &metrics.PipelineStats{Events: events, Instances: len(merged.Instances)}
	return merged
}

// mergesAsIs reports whether row ir of rep enters a merged view unchanged:
// it names its own origin and carries no detection bound to widen.
func mergesAsIs(rep *Report, ir *InstanceResult) bool {
	return ir.Origin == rowKey(rep, ir).origin && rowBound(ir) == 0
}

// mergeKeyed is the general merge: one map per key for rows, their bounds
// and sampling records, and registry rows, then the keys sorted.
func mergeKeyed(reports []*Report) (*Report, MergeStats) {
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
			key := rowKey(rep, ir)
			// Rows are copied so the merged view owns its Origin stamps.
			cp := *ir
			cp.Origin = key.origin
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
			key := registryKey(rep, i)
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
			widenRow(ir, b, sampled[k])
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
	sort.Slice(keys, func(i, j int) bool { return keys[i].compare(keys[j]) < 0 })
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

// widenRow stamps a row (already a private copy at the struct level) with
// sampling provenance: a copy of the record rec, its bound raised to b, and
// every detection bound widened to at least b. Slices and nested pointers
// are cloned first — the rows they came from are never mutated.
func widenRow(ir *InstanceResult, b float64, rec *sample.InstanceSampling) {
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
