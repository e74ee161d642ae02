package pregel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/framing"
)

// This file implements incremental snapshots: a CRC'd DVSNAP-companion
// record that stores a barrier snapshot as a *patch* against an earlier base
// snapshot, identified by fingerprint+superstep. Between two checkpoints of
// a converged-then-repaired run only the touched frontier's state changes,
// so the patch is O(touched) bytes where a full snapshot is O(|V|). See
// DESIGN.md §16 "Checkpoint chain".
//
// The record patches a Snapshot's seven sections, which are the bytes
// DVSNAP stores (active bitset, removed bitset, queue, inbox counts, inbox
// payload, values, extra). Equal-length sections are
// diffed into sparse byte runs; sections whose length changed (a grown
// graph, a resized extra payload) degrade to full replacement, which is
// still correct, just not small. Aggregates are tiny and always stored in
// full.

// SnapshotDeltaVersion is the current delta-record format version (see
// SnapshotVersion for what 2 means).
const SnapshotDeltaVersion = 2

var snapshotDeltaFormat = framing.Format{
	Magic: [6]byte{'D', 'V', 'S', 'N', 'P', 'D'}, Version: SnapshotDeltaVersion, Name: "DVSNPD",
	Corrupt: ErrSnapshotCorrupt, Unsupported: ErrSnapshotVersion,
}

// Section patch tags.
const (
	patchUnchanged = 0 // section bytes identical to the base's
	patchFull      = 1 // full replacement: len u64 + bytes
	patchRuns      = 2 // equal-length sparse edit: count u32 + (off u64, len u32, bytes)×count
)

// numSnapSections is the number of a snapshot's sections (active,
// removed, queue, inboxCounts, inbox, values, extra).
const numSnapSections = 7

// snapSectionNames label sections in error messages, in the order DVSNAP
// lays them out.
var snapSectionNames = [numSnapSections]string{
	"active", "removed", "queue", "inboxCounts", "inbox", "values", "extra",
}

// patchRun is one contiguous byte edit at off.
type patchRun struct {
	off  int
	data []byte
}

// sectionPatch is the patch for one section.
type sectionPatch struct {
	tag  byte
	full []byte     // patchFull payload
	runs []patchRun // patchRuns payload
}

// SnapshotDelta is a decoded incremental snapshot record: the header and
// aggregates of the snapshot it encodes, the identity of the base it
// patches, and one patch per section.
type SnapshotDelta struct {
	snapHeader // at this barrier: the fingerprint may differ from the base's

	BaseFingerprint uint64 // identity of the snapshot this record patches
	BaseSuperstep   int

	Aggs []float64

	patches [numSnapSections]sectionPatch
}

// runCoalesceGap: differing byte runs separated by at most this many equal
// bytes are merged into one run — 12 bytes of per-run framing make short
// gaps cheaper to carry than to split.
const runCoalesceGap = 16

// diffSkipBlock and diffSkipSpan are how many equal bytes diffSection
// skips with one bytes.Equal between runs, first a span at a time, then a
// block: a converged section is nearly all equal spans, and comparing them
// in long strides is what keeps the diff off the per-byte loop and out of
// per-call overhead.
const (
	diffSkipBlock = 64
	diffSkipSpan  = 4096
)

// diffSection computes the cheapest patch turning base into next.
func diffSection(base, next []byte) sectionPatch {
	if len(base) != len(next) {
		return sectionPatch{tag: patchFull, full: next}
	}
	var runs []patchRun
	cost := 4 // run count
	i := 0
	for i < len(next) {
		for i+diffSkipSpan <= len(next) && bytes.Equal(base[i:i+diffSkipSpan], next[i:i+diffSkipSpan]) {
			i += diffSkipSpan
		}
		for i+diffSkipBlock <= len(next) && bytes.Equal(base[i:i+diffSkipBlock], next[i:i+diffSkipBlock]) {
			i += diffSkipBlock
		}
		for i < len(next) && base[i] == next[i] {
			i++
		}
		if i == len(next) {
			break
		}
		start := i
		end := i + 1
		// Extend the run while bytes differ, absorbing short equal gaps.
		for end < len(next) {
			if base[end] != next[end] {
				end++
				continue
			}
			gap := end
			for gap < len(next) && gap-end < runCoalesceGap && base[gap] == next[gap] {
				gap++
			}
			if gap < len(next) && gap-end < runCoalesceGap && base[gap] != next[gap] {
				end = gap + 1
				continue
			}
			break
		}
		runs = append(runs, patchRun{off: start, data: next[start:end]})
		cost += 12 + (end - start)
		i = end
	}
	if len(runs) == 0 {
		return sectionPatch{tag: patchUnchanged}
	}
	if cost >= 8+len(next) {
		// The sparse form is no smaller than a full replacement.
		return sectionPatch{tag: patchFull, full: next}
	}
	return sectionPatch{tag: patchRuns, runs: runs}
}

// DiffSnapshots computes the incremental record that turns base into next
// by diffing their sections as they stand. Any two snapshots diff
// successfully; the record is small exactly when the runs share most of
// their state (same graph size, same program, a small touched frontier).
// The record's patches alias next's sections.
func DiffSnapshots(base, next *Snapshot) *SnapshotDelta {
	d := &SnapshotDelta{
		snapHeader:      next.snapHeader,
		BaseFingerprint: base.Fingerprint,
		BaseSuperstep:   base.Superstep,
		Aggs:            slices.Clone(next.Aggs),
	}
	bs := base.sections()
	for i, ns := range next.sections() {
		d.patches[i] = diffSection(*bs[i], *ns)
	}
	return d
}

// apply patches s, in place, into the snapshot d encodes: sparse edits are
// written into s's sections, and replaced sections alias d. d must patch
// s's state (matching fingerprint and superstep) or an error wrapping
// ErrSnapshotMismatch is returned; runs out of a section's bounds, and
// sections that contradict d's vertex count, return an error wrapping
// ErrSnapshotCorrupt, and leave s partly patched.
func (s *Snapshot) apply(d *SnapshotDelta) error {
	if s.Fingerprint != d.BaseFingerprint {
		return fmt.Errorf("%w: delta record patches base fingerprint %016x, snapshot has %016x",
			ErrSnapshotMismatch, d.BaseFingerprint, s.Fingerprint)
	}
	if s.Superstep != d.BaseSuperstep {
		return fmt.Errorf("%w: delta record patches base superstep %d, snapshot is at %d",
			ErrSnapshotMismatch, d.BaseSuperstep, s.Superstep)
	}
	for i, sec := range s.sections() {
		switch p := &d.patches[i]; p.tag {
		case patchFull:
			*sec = p.full
		case patchRuns:
			for _, r := range p.runs {
				if r.off < 0 || r.off+len(r.data) > len(*sec) {
					return fmt.Errorf("%w: %s patch run [%d,%d) exceeds section length %d",
						ErrSnapshotCorrupt, snapSectionNames[i], r.off, r.off+len(r.data), len(*sec))
				}
				copy((*sec)[r.off:], r.data)
			}
		}
	}
	s.snapHeader, s.Aggs = d.snapHeader, d.Aggs
	return s.checkSections()
}

// AppendTo appends the binary encoding of d to dst. The layout (all
// integers little-endian), framed as DESIGN.md §10 describes:
//
//	magic "DVSNPD" | version u16 | header (see snapHeader)
//	| baseFingerprint u64 | baseSuperstep i64
//	| aggs: count u32, value f64 ×count
//	| section ×7: tag u8
//	    tag 1: len u64 + bytes
//	    tag 2: count u32, run ×count (off u64, len u32, bytes)
//	| crc32(IEEE) of everything above, u32
func (d *SnapshotDelta) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = snapshotDeltaFormat.Begin(dst)
	dst = d.snapHeader.appendTo(dst)
	dst = binary.LittleEndian.AppendUint64(dst, d.BaseFingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.BaseSuperstep)))
	dst = appendAggs(dst, d.Aggs)
	for _, p := range d.patches {
		dst = append(dst, p.tag)
		switch p.tag {
		case patchFull:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.full)))
			dst = append(dst, p.full...)
		case patchRuns:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.runs)))
			for _, r := range p.runs {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(r.off))
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.data)))
				dst = append(dst, r.data...)
			}
		}
	}
	return framing.Seal(dst, start)
}

// DecodeSnapshotDelta decodes one delta record from the front of b,
// returning the record and any remaining bytes. Corrupt, truncated, or
// wrong-version input returns an error wrapping ErrSnapshotCorrupt or
// ErrSnapshotVersion; it never panics. Run offsets are validated against
// the base when the record is applied, not here. The record shares no
// bytes with b.
func DecodeSnapshotDelta(b []byte) (*SnapshotDelta, []byte, error) {
	r := snapshotDeltaFormat.Open(b)
	d := &SnapshotDelta{
		snapHeader:      readSnapHeader(r),
		BaseFingerprint: r.U64(),
		BaseSuperstep:   int(r.I64()),
		Aggs:            readAggs(r),
	}
	for i := range d.patches {
		p := sectionPatch{tag: r.U8()}
		switch p.tag {
		case patchUnchanged:
		case patchFull:
			p.full = bytes.Clone(r.Blob(snapSectionNames[i]))
		case patchRuns:
			p.runs = make([]patchRun, r.Count(12, "patch run"))
			for j := range p.runs {
				off := r.U64()
				if off > math.MaxInt32 {
					r.Fail("%s patch run offset %d out of range", snapSectionNames[i], off)
				}
				p.runs[j] = patchRun{off: int(off), data: bytes.Clone(r.Take(int(r.U32())))}
			}
		default:
			r.Fail("unknown section patch tag %d", p.tag)
		}
		d.patches[i] = p
	}
	rest, err := r.Close()
	if err != nil {
		return nil, nil, err
	}
	return d, rest, nil
}
