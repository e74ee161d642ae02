package pregel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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

// snapshotDeltaMagic prefixes every encoded snapshot delta record.
var snapshotDeltaMagic = [6]byte{'D', 'V', 'S', 'N', 'P', 'D'}

// Section patch tags.
const (
	patchUnchanged = 0 // section bytes identical to the base's
	patchFull      = 1 // full replacement: len u64 + bytes
	patchRuns      = 2 // equal-length sparse edit: count u32 + (off u64, len u32, bytes)×count
)

// numSnapSections is the number of patchable serialized sections (active,
// removed, queue, inboxCounts, inbox, values, extra).
const numSnapSections = 7

// snapSectionNames label sections in error messages, index-aligned with
// snapshotSections.
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

// snapshotSections serializes s's seven patchable sections into their
// canonical byte strings, exactly as AppendTo lays them out.
func snapshotSections(s *Snapshot) [numSnapSections][]byte {
	var out [numSnapSections][]byte
	out[0] = appendBitset(nil, s.Active)
	out[1] = appendBitset(nil, s.Removed)
	q := binary.LittleEndian.AppendUint32(nil, uint32(len(s.Queue)))
	for _, v := range s.Queue {
		q = binary.LittleEndian.AppendUint32(q, uint32(v))
	}
	out[2] = q
	ic := make([]byte, 0, 4*len(s.InboxCounts))
	for _, c := range s.InboxCounts {
		ic = binary.LittleEndian.AppendUint32(ic, c)
	}
	out[3] = ic
	out[4] = s.Inbox
	out[5] = s.Values
	out[6] = s.Extra
	return out
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
	bs, ns := snapshotSections(base), snapshotSections(next)
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
	if err := d.patchSections(&sec, false); err != nil {
		return nil, err
	}
	return snapshotFromSections(d, sec)
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

// patchSections turns the base's serialized sections into those of the
// snapshot d encodes. With inPlace the caller owns sec's bytes and sparse
// edits are written straight into them — how LoadChain carries one state
// across a run of records; otherwise a section is copied before its first
// edit and the bytes sec came in with are never written. Replaced sections
// alias d either way.
func (d *SnapshotDelta) patchSections(sec *[numSnapSections][]byte, inPlace bool) error {
	for i, p := range d.patches {
		switch p.tag {
		case patchUnchanged:
		case patchFull:
			sec[i] = p.full
		case patchRuns:
			out := sec[i]
			if !inPlace {
				out = append([]byte(nil), out...)
			}
			for _, r := range p.runs {
				if r.off < 0 || r.off+len(r.data) > len(out) {
					return fmt.Errorf("%w: %s patch run [%d,%d) exceeds section length %d",
						ErrSnapshotCorrupt, snapSectionNames[i], r.off, r.off+len(r.data), len(out))
				}
				copy(out[r.off:], r.data)
			}
			sec[i] = out
		default:
			return fmt.Errorf("%w: unknown section patch tag %d", ErrSnapshotCorrupt, p.tag)
		}
	}
	return nil
}

// checkSectionLengths rejects sections whose fixed-size parts contradict
// the vertex count n.
func checkSectionLengths(n int, sec *[numSnapSections][]byte) error {
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
	return nil
}

// snapshotFromSections parses the seven reconstructed section byte strings
// back into a Snapshot under d's header. The snapshot shares no bytes with
// sec.
func snapshotFromSections(d *SnapshotDelta, sec [numSnapSections][]byte) (*Snapshot, error) {
	n := d.NumVertices
	if err := checkSectionLengths(n, &sec); err != nil {
		return nil, err
	}
	s := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: d.Fingerprint,
		Superstep:   d.Superstep,
		NumVertices: n,
		ActivateAll: d.ActivateAll,
		Stopped:     d.Stopped,
		Done:        d.Done,
		WorkQueue:   d.WorkQueue,
		Aggs:        append([]float64(nil), d.Aggs...),
	}
	s.Active = parseBitset(sec[0], n)
	s.Removed = parseBitset(sec[1], n)
	r := &snapReader{b: sec[2]}
	nQueue := r.count(4, "queue")
	s.Queue = make([]VertexID, 0, nQueue)
	for i := 0; i < nQueue && r.err == nil; i++ {
		v := r.u32()
		if r.err == nil && int(v) >= n {
			r.fail("queue vertex %d out of range", v)
		}
		s.Queue = append(s.Queue, VertexID(v))
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("queue section has %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	s.InboxCounts = make([]uint32, n)
	for i := range s.InboxCounts {
		s.InboxCounts[i] = binary.LittleEndian.Uint32(sec[3][4*i:])
	}
	s.Inbox = append([]byte(nil), sec[4]...)
	s.Values = append([]byte(nil), sec[5]...)
	s.Extra = append([]byte(nil), sec[6]...)
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
// integers little-endian):
//
//	magic "DVSNPD" | version u16 | fingerprint u64 | superstep i64
//	| numVertices u64 | flags u8 (1=activateAll 2=stopped 4=done 8=workQueue)
//	| baseFingerprint u64 | baseSuperstep i64
//	| aggs: count u32, value f64 ×count
//	| section ×7: tag u8
//	    tag 1: len u64 + bytes
//	    tag 2: count u32, run ×count (off u64, len u32, bytes)
//	| crc32(IEEE) of everything above, u32
func (d *SnapshotDelta) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, snapshotDeltaMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, SnapshotDeltaVersion)
	dst = binary.LittleEndian.AppendUint64(dst, d.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.Superstep)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.NumVertices))
	var flags byte
	if d.ActivateAll {
		flags |= 1
	}
	if d.Stopped {
		flags |= 2
	}
	if d.Done {
		flags |= 4
	}
	if d.WorkQueue {
		flags |= 8
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, d.BaseFingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(d.BaseSuperstep)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.Aggs)))
	for _, v := range d.Aggs {
		dst = AppendFloat64(dst, v)
	}
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
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeSnapshotDelta decodes one delta record from the front of b,
// returning the record and any remaining bytes. Corrupt, truncated, or
// wrong-version input returns an error wrapping ErrSnapshotCorrupt or
// ErrSnapshotVersion; it never panics. Run offsets are validated against
// the base at ApplySnapshotDelta time, not here.
func DecodeSnapshotDelta(b []byte) (*SnapshotDelta, []byte, error) {
	r := &snapReader{b: b}
	if magic := r.take(len(snapshotDeltaMagic)); r.err == nil {
		for i := range snapshotDeltaMagic {
			if magic[i] != snapshotDeltaMagic[i] {
				r.fail("bad delta-record magic")
				break
			}
		}
	}
	d := &SnapshotDelta{}
	d.Version = r.u16()
	if r.err == nil && d.Version != SnapshotDeltaVersion {
		return nil, nil, fmt.Errorf("%w: delta record version %d, want %d", ErrSnapshotVersion, d.Version, SnapshotDeltaVersion)
	}
	d.Fingerprint = r.u64()
	d.Superstep = int(int64(r.u64()))
	n64 := r.u64()
	if r.err == nil && n64 > math.MaxInt32 {
		r.fail("vertex count %d exceeds input", n64)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	d.NumVertices = int(n64)
	flags := r.u8()
	d.ActivateAll = flags&1 != 0
	d.Stopped = flags&2 != 0
	d.Done = flags&4 != 0
	d.WorkQueue = flags&8 != 0
	if r.err == nil && flags&^byte(15) != 0 {
		r.fail("unknown flag bits %#x", flags)
	}
	d.BaseFingerprint = r.u64()
	d.BaseSuperstep = int(int64(r.u64()))
	nAggs := r.count(8, "aggregator")
	d.Aggs = make([]float64, 0, nAggs)
	for i := 0; i < nAggs && r.err == nil; i++ {
		d.Aggs = append(d.Aggs, math.Float64frombits(r.u64()))
	}
	for i := range d.patches {
		if r.err != nil {
			break
		}
		tag := r.u8()
		switch tag {
		case patchUnchanged:
			d.patches[i] = sectionPatch{tag: patchUnchanged}
		case patchFull:
			d.patches[i] = sectionPatch{tag: patchFull, full: r.blob(snapSectionNames[i])}
		case patchRuns:
			nRuns := r.count(12, "patch run")
			p := sectionPatch{tag: patchRuns}
			for j := 0; j < nRuns && r.err == nil; j++ {
				off := r.u64()
				if r.err == nil && off > math.MaxInt32 {
					r.fail("%s patch run offset %d out of range", snapSectionNames[i], off)
				}
				dlen := int(r.u32())
				data := r.take(dlen)
				if r.err == nil {
					p.runs = append(p.runs, patchRun{off: int(off), data: append([]byte(nil), data...)})
				}
			}
			d.patches[i] = p
		default:
			r.fail("unknown section patch tag %d", tag)
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	consumed := len(b) - len(r.b)
	wantCRC := r.u32()
	if r.err != nil {
		return nil, nil, r.err
	}
	if got := crc32.ChecksumIEEE(b[:consumed]); got != wantCRC {
		return nil, nil, fmt.Errorf("%w: delta record checksum mismatch (got %08x, want %08x)", ErrSnapshotCorrupt, got, wantCRC)
	}
	return d, r.b, nil
}
