package pregel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/framing"
)

// This file implements incremental snapshots: a CRC'd DVSNAP-companion
// record that stores a barrier snapshot as a *patch* against an earlier base
// snapshot, identified by fingerprint+superstep. Between two checkpoints of
// a converged-then-repaired run only the touched frontier's state changes,
// so the patch is O(touched) bytes where a full snapshot is O(|V|). See
// DESIGN.md §16 "Checkpoint chain".
//
// The record patches the *serialized sections* of the snapshot (the same
// seven sections AppendTo writes: active bitset, removed bitset, queue,
// inbox counts, inbox payload, values, extra). Equal-length sections are
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

// numSnapSections is the number of patchable serialized sections (active,
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

// sectionPatch is the patch for one serialized section.
type sectionPatch struct {
	tag  byte
	full []byte     // patchFull payload
	runs []patchRun // patchRuns payload
}

// SnapshotDelta is a decoded incremental snapshot record: everything a
// Snapshot's header carries, plus the identity of the base it patches.
// Reconstruct the full snapshot with ApplySnapshotDelta.
type SnapshotDelta struct {
	Version     uint16
	Fingerprint uint64 // graph fingerprint at this barrier (may differ from the base's)
	Superstep   int
	NumVertices int

	ActivateAll bool
	Stopped     bool
	Done        bool
	WorkQueue   bool

	BaseFingerprint uint64 // identity of the snapshot this record patches
	BaseSuperstep   int

	Aggs []float64

	patches [numSnapSections]sectionPatch
}

// runCoalesceGap: differing byte runs separated by at most this many equal
// bytes are merged into one run — 12 bytes of per-run framing make short
// gaps cheaper to carry than to split.
const runCoalesceGap = 16

// diffSkipBlock is how many equal bytes diffSection skips with one
// bytes.Equal between runs: a converged section is nearly all equal spans,
// and comparing them a block at a time is what keeps the diff off the
// per-byte loop.
const diffSkipBlock = 64

// diffSection computes the cheapest patch turning base into next.
func diffSection(base, next []byte) sectionPatch {
	if len(base) == len(next) && bytes.Equal(base, next) {
		return sectionPatch{tag: patchUnchanged}
	}
	if len(base) != len(next) {
		return sectionPatch{tag: patchFull, full: next}
	}
	var runs []patchRun
	cost := 4 // run count
	i := 0
	for i < len(next) {
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
	if cost >= 8+len(next) {
		// The sparse form is no smaller than a full replacement.
		return sectionPatch{tag: patchFull, full: next}
	}
	return sectionPatch{tag: patchRuns, runs: runs}
}

// DiffSnapshots computes the incremental record that turns base into next.
// Any two snapshots of the same format diff successfully; the record is
// small exactly when the runs share most of their serialized state (same
// graph size, same program, a small touched frontier).
func DiffSnapshots(base, next *Snapshot) *SnapshotDelta {
	bs, ns := sectionView(base), sectionView(next)
	return diffSections(base.Fingerprint, base.Superstep, &bs, next, &ns)
}

// diffSections is DiffSnapshots over sections already serialized: bs are
// the base's, identified by baseFingerprint and baseSuperstep, ns are
// next's. The record's runs alias ns.
func diffSections(baseFingerprint uint64, baseSuperstep int, bs *[numSnapSections][]byte, next *Snapshot, ns *[numSnapSections][]byte) *SnapshotDelta {
	d := &SnapshotDelta{
		Version:         SnapshotDeltaVersion,
		Fingerprint:     next.Fingerprint,
		Superstep:       next.Superstep,
		NumVertices:     next.NumVertices,
		ActivateAll:     next.ActivateAll,
		Stopped:         next.Stopped,
		Done:            next.Done,
		WorkQueue:       next.WorkQueue,
		BaseFingerprint: baseFingerprint,
		BaseSuperstep:   baseSuperstep,
		Aggs:            append([]float64(nil), next.Aggs...),
	}
	for i := range d.patches {
		d.patches[i] = diffSection(bs[i], ns[i])
	}
	return d
}

// ApplySnapshotDelta reconstructs the full snapshot d encodes by patching
// base. The base must be the snapshot the record was diffed against
// (matching fingerprint and superstep) or an error wrapping
// ErrSnapshotMismatch is returned; structurally impossible patches (runs
// out of the base's bounds, section lengths that contradict the vertex
// count) return an error wrapping ErrSnapshotCorrupt. base is not modified.
func ApplySnapshotDelta(base *Snapshot, d *SnapshotDelta) (*Snapshot, error) {
	if err := d.checkBase(base.Fingerprint, base.Superstep); err != nil {
		return nil, err
	}
	sec := snapshotSections(base)
	if err := d.patchSections(&sec); err != nil {
		return nil, err
	}
	return snapshotFromSections(d.header(), d.Aggs, sec)
}

func (d *SnapshotDelta) header() snapHeader {
	return snapHeader{d.Fingerprint, d.Superstep, d.NumVertices, d.ActivateAll, d.Stopped, d.Done, d.WorkQueue}
}

// checkBase reports whether d patches the snapshot state identified by
// fingerprint and superstep.
func (d *SnapshotDelta) checkBase(fingerprint uint64, superstep int) error {
	if fingerprint != d.BaseFingerprint {
		return fmt.Errorf("%w: delta record patches base fingerprint %016x, snapshot has %016x",
			ErrSnapshotMismatch, d.BaseFingerprint, fingerprint)
	}
	if superstep != d.BaseSuperstep {
		return fmt.Errorf("%w: delta record patches base superstep %d, snapshot is at %d",
			ErrSnapshotMismatch, d.BaseSuperstep, superstep)
	}
	return nil
}

// patchSections turns the base's serialized sections, which the caller
// owns, into those of the snapshot d encodes: sparse edits are written
// straight into them, and replaced sections alias d.
func (d *SnapshotDelta) patchSections(sec *[numSnapSections][]byte) error {
	for i, p := range d.patches {
		switch p.tag {
		case patchUnchanged:
		case patchFull:
			sec[i] = p.full
		case patchRuns:
			for _, r := range p.runs {
				if r.off < 0 || r.off+len(r.data) > len(sec[i]) {
					return fmt.Errorf("%w: %s patch run [%d,%d) exceeds section length %d",
						ErrSnapshotCorrupt, snapSectionNames[i], r.off, r.off+len(r.data), len(sec[i]))
				}
				copy(sec[i][r.off:], r.data)
			}
		default:
			return fmt.Errorf("%w: unknown section patch tag %d", ErrSnapshotCorrupt, p.tag)
		}
	}
	return nil
}

// checkSections rejects sections that contradict the vertex count n:
// bitsets or inbox counts of the wrong length, or a queue that is not a
// count followed by that many vertices below n.
func checkSections(n int, sec *[numSnapSections][]byte) error {
	for i, name := range []string{"active", "removed"} {
		if len(sec[i]) != (n+7)/8 {
			return fmt.Errorf("%w: %s bitset is %d bytes, %d vertices need %d",
				ErrSnapshotCorrupt, name, len(sec[i]), n, (n+7)/8)
		}
	}
	if len(sec[3]) != 4*n {
		return fmt.Errorf("%w: inbox counts are %d bytes, %d vertices need %d",
			ErrSnapshotCorrupt, len(sec[3]), n, 4*n)
	}
	r := snapshotFormat.Reader(sec[2])
	for i := r.Count(4, "queue"); i > 0; i-- {
		if v := r.U32(); int64(v) >= int64(n) {
			r.Fail("queue vertex %d out of range", v)
		}
	}
	return r.End()
}

// snapshotFromSections parses the seven section byte strings back into a
// Snapshot under header h and aggregates aggs. The snapshot shares no
// bytes with sec or aggs.
func snapshotFromSections(h snapHeader, aggs []float64, sec [numSnapSections][]byte) (*Snapshot, error) {
	n := h.n
	if err := checkSections(n, &sec); err != nil {
		return nil, err
	}
	s := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: h.fingerprint,
		Superstep:   h.superstep,
		NumVertices: n,
		ActivateAll: h.activateAll,
		Stopped:     h.stopped,
		Done:        h.done,
		WorkQueue:   h.workQueue,
		Aggs:        append([]float64(nil), aggs...),
		Active:      parseBitset(sec[0], n),
		Removed:     parseBitset(sec[1], n),
		Queue:       make([]VertexID, (len(sec[2])-4)/4),
		InboxCounts: make([]uint32, n),
		Inbox:       append([]byte(nil), sec[4]...),
		Values:      append([]byte(nil), sec[5]...),
		Extra:       append([]byte(nil), sec[6]...),
	}
	for i := range s.Queue {
		s.Queue[i] = VertexID(binary.LittleEndian.Uint32(sec[2][4+4*i:]))
	}
	for i := range s.InboxCounts {
		s.InboxCounts[i] = binary.LittleEndian.Uint32(sec[3][4*i:])
	}
	return s, nil
}

func parseBitset(raw []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out
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
	dst = d.header().appendTo(dst)
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
// the base at ApplySnapshotDelta time, not here. The record shares no bytes
// with b.
func DecodeSnapshotDelta(b []byte) (*SnapshotDelta, []byte, error) {
	r := snapshotDeltaFormat.Open(b)
	h := readSnapHeader(r)
	d := &SnapshotDelta{
		Version:         SnapshotDeltaVersion,
		Fingerprint:     h.fingerprint,
		Superstep:       h.superstep,
		NumVertices:     h.n,
		ActivateAll:     h.activateAll,
		Stopped:         h.stopped,
		Done:            h.done,
		WorkQueue:       h.workQueue,
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
