package pregel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/framing"
)

// fuzzSeedSnapshot builds the valid snapshot the fuzz seeds mutate; the
// same bytes are checked in under testdata/fuzz/FuzzSnapshotDecode.
func fuzzSeedSnapshot() []byte {
	s := &Snapshot{
		snapHeader: snapHeader{
			Fingerprint: 0xdeadbeefcafef00d,
			Superstep:   3,
			NumVertices: 5,
			ActivateAll: true,
		},
		Aggs:        []float64{1.5, -2},
		active:      []byte{0b01101}, // vertices 0, 2 and 3
		removed:     []byte{0b00100}, // vertex 2
		queue:       u32s(3, 0, 3, 1),
		inboxCounts: u32s(1, 0, 0, 2, 0),
		Inbox:       AppendFloat64(AppendFloat64(AppendFloat64(nil, 1), 2), 3),
		Values:      bytes.Repeat([]byte{7}, 40),
		Extra:       []byte("extra"),
	}
	return s.AppendTo(nil)
}

// paddedSnapshot is fuzzSeedSnapshot with bit 7 of its removed bitset set
// — vertex 7 of 5 — and its checksum recomputed, so that only the padding
// rule can refuse it.
func paddedSnapshot() []byte {
	b := fuzzSeedSnapshot()
	const removedAt = 8 + 25 + 4 + 2*8 + 1 // magic and version, header, aggs, active bitset
	b[removedAt] |= 0x80
	return framing.Seal(b[:len(b)-4], 0)
}

// TestBitsetPaddingRefused: a bit set past the last vertex in the active
// or removed bitset is refused as corrupt — in a DVSNAP record, and in the
// sections a DVSNPD record patched — rather than decoded and dropped, so
// every snapshot a decoder accepts re-encodes to the bytes it came from.
func TestBitsetPaddingRefused(t *testing.T) {
	if _, _, err := DecodeSnapshot(paddedSnapshot()); !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "removed bitset") {
		t.Fatalf("DVSNAP with a padding bit: err = %v, want ErrSnapshotCorrupt naming the removed bitset", err)
	}
	base, _, err := DecodeSnapshot(fuzzSeedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	next := cloneSnapshot(base)
	next.Superstep++
	next.active[0] |= 0x20 // vertex 5 of 5
	dir := t.TempDir()
	w, err := NewChainWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Snapshot{base, next} {
		if _, _, err := w.AppendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadChain(dir); !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "chain-000001.delta") {
		t.Fatalf("delta record patching in a padding bit: err = %v, want ErrSnapshotCorrupt naming the record", err)
	}
}

// FuzzSnapshotDecode asserts the decoder's contract on arbitrary input:
// it may reject (corrupt/truncated/wrong-version inputs must error) but it
// must never panic, and anything it accepts must re-encode to the bytes it
// accepted.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSeedSnapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("DVSNAP"))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[6] ^= 0xff
	f.Add(wrongVersion)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)
	f.Add(paddedSnapshot())

	f.Fuzz(func(t *testing.T, b []byte) {
		s, rest, err := DecodeSnapshot(b)
		if err != nil {
			if s != nil {
				t.Fatal("decode returned both a snapshot and an error")
			}
			return
		}
		if len(rest) > len(b) {
			t.Fatal("remainder longer than input")
		}
		// A decoded snapshot re-encodes to exactly the bytes it was decoded
		// from: every field is stored as it was read, and checkSections
		// refuses the bitset padding bits an encoder never writes.
		if re := s.AppendTo(nil); !bytes.Equal(re, b[:len(b)-len(rest)]) {
			t.Fatalf("re-encode changed the snapshot:\n got %x\nwant %x", re, b[:len(b)-len(rest)])
		}
	})
}
