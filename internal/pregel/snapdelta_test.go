package pregel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cloneSnapshot deep-copies s.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := new(Snapshot)
	c.copyFrom(s)
	return c
}

// bitAt reads bit u of the section bitset b.
func bitAt(b []byte, u int) bool { return b[u>>3]&(1<<(u&7)) != 0 }

// putBit sets or clears bit u of the section bitset b.
func putBit(b []byte, u int, on bool) {
	if on {
		b[u>>3] |= 1 << (u & 7)
	} else {
		b[u>>3] &^= 1 << (u & 7)
	}
}

// u32s is the little-endian encoding of vs: a queue or inbox-counts
// section.
func u32s(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// blankSnapshot is a snapshot under header h in which no vertex is active,
// removed, queued or sent to.
func blankSnapshot(h snapHeader) *Snapshot {
	n := h.NumVertices
	return &Snapshot{snapHeader: h, active: make([]byte, (n+7)/8), removed: make([]byte, (n+7)/8),
		queue: u32s(0), inboxCounts: make([]byte, 4*n)}
}

// randQueue draws a queue section of up to n+1 vertices below n.
func randQueue(rng *rand.Rand, n int) []byte {
	q := u32s(0)
	for i := 0; n > 0 && i < rng.Intn(n+1); i++ {
		q = binary.LittleEndian.AppendUint32(q, uint32(rng.Intn(n)))
	}
	binary.LittleEndian.PutUint32(q, uint32(len(q)/4-1))
	return q
}

// randSnapshot builds a random but structurally valid snapshot of n
// vertices, the shared generator for the delta-record property tests.
func randSnapshot(rng *rand.Rand, n int) *Snapshot {
	s := blankSnapshot(snapHeader{
		Fingerprint: rng.Uint64(),
		Superstep:   rng.Intn(1 << 20),
		NumVertices: n,
		ActivateAll: rng.Intn(2) == 0,
		Stopped:     rng.Intn(2) == 0,
		Done:        rng.Intn(2) == 0,
		WorkQueue:   rng.Intn(2) == 0,
	})
	for i := 0; i < rng.Intn(5); i++ {
		s.Aggs = append(s.Aggs, rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		putBit(s.active, i, rng.Intn(2) == 0)
		putBit(s.removed, i, rng.Intn(3) == 0)
		binary.LittleEndian.PutUint32(s.inboxCounts[4*i:], uint32(rng.Intn(4)))
	}
	s.queue = randQueue(rng, n)
	s.Inbox = randBytes(rng, rng.Intn(64))
	s.Values = randBytes(rng, 8*n)
	s.Extra = randBytes(rng, rng.Intn(256))
	return s
}

// perturbSnapshot derives a plausible "next checkpoint" from base: flip a
// few actives, rewrite a few value/extra cells, sometimes change the
// queue, fingerprint, flags — and occasionally grow the graph, which
// forces the length-changed sections onto the full-replacement path.
func perturbSnapshot(rng *rand.Rand, base *Snapshot) *Snapshot {
	s := cloneSnapshot(base)
	s.Superstep = base.Superstep + 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		s.Fingerprint = rng.Uint64()
	}
	if rng.Intn(4) == 0 {
		s.Done = !s.Done
	}
	if rng.Intn(4) == 0 && len(s.Aggs) > 0 {
		s.Aggs[rng.Intn(len(s.Aggs))] = rng.NormFloat64()
	}
	n := s.NumVertices
	if rng.Intn(5) == 0 {
		// Grow the graph: every per-vertex section changes length, and the
		// new vertices are inactive, present and sent nothing.
		grow := 1 + rng.Intn(4)
		n += grow
		s.NumVertices = n
		s.active = append(s.active, make([]byte, (n+7)/8-len(s.active))...)
		s.removed = append(s.removed, make([]byte, (n+7)/8-len(s.removed))...)
		s.inboxCounts = append(s.inboxCounts, make([]byte, 4*grow)...)
		s.Values = append(s.Values, randBytes(rng, 8*grow)...)
	}
	for i := 0; n > 0 && i < rng.Intn(4); i++ {
		putBit(s.active, rng.Intn(n), rng.Intn(2) == 0)
	}
	for i := 0; len(s.Values) >= 8 && i < rng.Intn(4); i++ {
		off := 8 * rng.Intn(len(s.Values)/8)
		copy(s.Values[off:], randBytes(rng, 8))
	}
	for i := 0; len(s.Extra) > 0 && i < rng.Intn(4); i++ {
		s.Extra[rng.Intn(len(s.Extra))] ^= byte(1 + rng.Intn(255))
	}
	if rng.Intn(3) == 0 {
		s.queue = randQueue(rng, n)
	}
	return s
}

// applyDelta applies d to a copy of base, leaving base as it was.
func applyDelta(base *Snapshot, d *SnapshotDelta) (*Snapshot, error) {
	s := cloneSnapshot(base)
	if err := s.apply(d); err != nil {
		return nil, err
	}
	return s, nil
}

// TestSnapshotDeltaRoundTrip is the property test for the DVSNPD record:
// for random (base, next) pairs, Diff → encode → decode → apply must
// reconstruct next bit-exactly, including when embedded in a longer
// stream.
func TestSnapshotDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		base := randSnapshot(rng, rng.Intn(40))
		next := perturbSnapshot(rng, base)

		d := DiffSnapshots(base, next)
		prefix := randBytes(rng, rng.Intn(8))
		enc := d.AppendTo(append([]byte(nil), prefix...))
		tail := randBytes(rng, rng.Intn(8))
		enc = append(enc, tail...)

		got, rest, err := DecodeSnapshotDelta(enc[len(prefix):])
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("trial %d: remainder mismatch", trial)
		}
		applied, err := applyDelta(base, got)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		if !sameSnapshot(next, applied) {
			t.Fatalf("trial %d: apply mismatch:\n got %+v\nwant %+v", trial, applied, next)
		}
	}
}

// TestSnapshotDeltaIdentical pins the degenerate diff: identical
// snapshots produce a record with no section payloads, far smaller than
// the snapshot itself.
func TestSnapshotDeltaIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randSnapshot(rng, 30)
	d := DiffSnapshots(base, base)
	enc := d.AppendTo(nil)
	full := base.AppendTo(nil)
	if len(enc) >= len(full) {
		t.Fatalf("identical-snapshot delta is %d bytes, full snapshot only %d", len(enc), len(full))
	}
	applied, err := applyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(base, applied) {
		t.Fatalf("identity apply mismatch:\n got %+v\nwant %+v", applied, base)
	}
}

// TestSnapshotDeltaBytesOTouched is the O(touched) regression test at the
// codec level: against a large base, touching a handful of vertices must
// produce a record orders of magnitude smaller than the full snapshot.
func TestSnapshotDeltaBytesOTouched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	base := randSnapshot(rng, n)
	base.queue = u32s(0)
	next := cloneSnapshot(base)
	next.Superstep++
	// Touch 3 vertices: one value cell and one active bit each.
	for _, u := range []int{17, 9000, n - 2} {
		copy(next.Values[8*u:], randBytes(rng, 8))
		putBit(next.active, u, !bitAt(next.active, u))
	}
	d := DiffSnapshots(base, next)
	enc := d.AppendTo(nil)
	full := next.AppendTo(nil)
	if len(enc) > len(full)/100 {
		t.Fatalf("3-vertex delta record is %d bytes — not O(touched) against a %d-byte full snapshot", len(enc), len(full))
	}
	applied, err := applyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(next, applied) {
		t.Fatal("O(touched) delta did not reconstruct the next snapshot")
	}
}

// diffSectionBytewise is diffSection comparing one byte at a time: the
// reference the block-skipping diffSection must agree with run for run.
func diffSectionBytewise(base, next []byte) sectionPatch {
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
		if base[i] == next[i] {
			i++
			continue
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
		return sectionPatch{tag: patchFull, full: next}
	}
	return sectionPatch{tag: patchRuns, runs: runs}
}

// TestDiffSectionMatchesBytewise holds diffSection to the byte-at-a-time
// reference: identical patches (tag, runs, bytes) on edits either side of a
// skip-block boundary, on equal gaps either side of runCoalesceGap, on
// all-equal and all-different sections, at the full-replacement cutoff, and
// on random sections of random edit density.
func TestDiffSectionMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	check := func(label string, base, next []byte) {
		t.Helper()
		got, want := diffSection(base, next), diffSectionBytewise(base, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: diffSection\n got %+v\nwant %+v", label, got, want)
		}
	}
	edit := func(base []byte, offs ...int) []byte {
		next := append([]byte(nil), base...)
		for _, o := range offs {
			next[o] ^= byte(1 + rng.Intn(255))
		}
		return next
	}
	base := randBytes(rng, 8*diffSkipBlock)
	for _, block := range []int{0, 1, 5} {
		for _, off := range []int{63, 64, 65} {
			at := block*diffSkipBlock + off
			check(fmt.Sprintf("edit at %d", at), base, edit(base, at))
			check(fmt.Sprintf("edits at %d and %d", at, at+2), base, edit(base, at, at+2))
		}
	}
	for _, gap := range []int{runCoalesceGap - 1, runCoalesceGap, runCoalesceGap + 1} {
		for _, first := range []int{10, diffSkipBlock - gap/2, 3*diffSkipBlock - 1} {
			check(fmt.Sprintf("gap %d after %d", gap, first), base, edit(base, first, first+gap+1))
		}
	}
	check("all equal", base, append([]byte(nil), base...))
	all := make([]int, len(base))
	for i := range all {
		all[i] = i
	}
	check("all different", base, edit(base, all...))
	// One run of r bytes costs 4 + 12 + r against 8 + len for a full
	// replacement: the cutoff is r = len − 8.
	for _, r := range []int{len(base) - 9, len(base) - 8, len(base) - 7} {
		check(fmt.Sprintf("run of %d at the full cutoff", r), base, edit(base, all[3:3+r]...))
	}
	check("empty", nil, nil)
	check("length changed", base, base[:len(base)-1])
	for trial := 0; trial < 2000; trial++ {
		b := randBytes(rng, rng.Intn(700))
		var offs []int
		if len(b) > 0 {
			density := rng.Intn(4)
			for i := 0; i < []int{1, 4, 20, len(b)}[density]; i++ {
				o := rng.Intn(len(b))
				for w := rng.Intn(24); w >= 0 && o < len(b); w-- {
					offs = append(offs, o)
					o++
				}
			}
		}
		check(fmt.Sprintf("trial %d", trial), b, edit(b, offs...))
	}
}

// TestSnapshotDeltaDecodeRejects walks every truncation and a bitflip at
// every offset: none may decode successfully to a record that then applies
// to the original base as if nothing happened, and none may panic.
func TestSnapshotDeltaDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randSnapshot(rng, 12)
	next := perturbSnapshot(rng, base)
	valid := DiffSnapshots(base, next).AppendTo(nil)

	if _, _, err := DecodeSnapshotDelta(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	for i := 0; i < len(valid); i++ {
		if _, _, err := DecodeSnapshotDelta(valid[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
	for i := 0; i < len(valid); i++ {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x40
		d, rest, err := DecodeSnapshotDelta(bad)
		if err != nil {
			continue
		}
		// A flip that still decodes (it can't: the CRC covers every byte)
		// would have to leave no remainder and survive apply.
		if len(rest) != 0 {
			t.Fatalf("bitflip at %d decoded with remainder", i)
		}
		if _, err := applyDelta(base, d); err == nil {
			t.Fatalf("bitflip at %d decoded and applied cleanly", i)
		}
	}
}

// TestSnapshotDeltaApplyRejects covers the apply-time validations: wrong
// base identity and out-of-bounds patch runs.
func TestSnapshotDeltaApplyRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randSnapshot(rng, 10)
	next := perturbSnapshot(rng, base)
	d := DiffSnapshots(base, next)

	t.Run("wrong-fingerprint", func(t *testing.T) {
		other := cloneSnapshot(base)
		other.Fingerprint ^= 0xff
		if _, err := applyDelta(other, d); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("wrong-superstep", func(t *testing.T) {
		other := cloneSnapshot(base)
		other.Superstep++
		if _, err := applyDelta(other, d); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("run-out-of-bounds", func(t *testing.T) {
		bad := &SnapshotDelta{
			snapHeader:      snapHeader{Fingerprint: base.Fingerprint, Superstep: base.Superstep + 1, NumVertices: base.NumVertices},
			BaseFingerprint: base.Fingerprint,
			BaseSuperstep:   base.Superstep,
		}
		bad.patches[5] = sectionPatch{tag: patchRuns, runs: []patchRun{{off: 1 << 30, data: []byte{1}}}}
		if _, err := applyDelta(base, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("bad-section-lengths", func(t *testing.T) {
		bad := &SnapshotDelta{
			// The header grows, the sections don't.
			snapHeader:      snapHeader{Fingerprint: base.Fingerprint, Superstep: base.Superstep + 1, NumVertices: base.NumVertices + 5},
			BaseFingerprint: base.Fingerprint,
			BaseSuperstep:   base.Superstep,
		}
		if _, err := applyDelta(base, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// fuzzSeedSnapshotDelta builds the valid record the fuzz seeds mutate.
func fuzzSeedSnapshotDelta() []byte {
	rng := rand.New(rand.NewSource(19))
	base := randSnapshot(rng, 8)
	next := perturbSnapshot(rng, base)
	return DiffSnapshots(base, next).AppendTo(nil)
}

// FuzzSnapshotDeltaDecode asserts the delta-record decoder's contract on
// arbitrary input: reject or faithfully round-trip, never panic.
func FuzzSnapshotDeltaDecode(f *testing.F) {
	valid := fuzzSeedSnapshotDelta()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("DVSNPD"))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[6] ^= 0xff
	f.Add(wrongVersion)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, b []byte) {
		d, rest, err := DecodeSnapshotDelta(b)
		if err != nil {
			if d != nil {
				t.Fatal("decode returned both a record and an error")
			}
			return
		}
		if len(rest) > len(b) {
			t.Fatal("remainder longer than input")
		}
		re := d.AppendTo(nil)
		d2, rest2, err := DecodeSnapshotDelta(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoded record left %d remainder bytes", len(rest2))
		}
		normalizeDelta(d)
		normalizeDelta(d2)
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("re-encode changed the record:\n got %+v\nwant %+v", d2, d)
		}
	})
}

// normalizeDelta maps nil and empty payloads to a canonical form so
// DeepEqual compares content, not allocation accidents.
func normalizeDelta(d *SnapshotDelta) {
	if len(d.Aggs) == 0 {
		d.Aggs = nil
	}
	for i := range d.patches {
		if len(d.patches[i].full) == 0 {
			d.patches[i].full = nil
		}
		if len(d.patches[i].runs) == 0 {
			d.patches[i].runs = nil
		}
		for j := range d.patches[i].runs {
			if len(d.patches[i].runs[j].data) == 0 {
				d.patches[i].runs[j].data = nil
			}
		}
	}
}
