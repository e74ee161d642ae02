package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var (
	errCorrupt = errors.New("corrupt")
	errVersion = errors.New("version")
	testFormat = Format{Magic: [6]byte{'T', 'E', 'S', 'T', 'F', 'M'}, Version: 3, Name: "TESTFM",
		Corrupt: errCorrupt, Unsupported: errVersion}
)

// frame encodes one test frame: a counted list of u64s, a blob, then a
// field aligned to 8 bytes.
func frame(vals []uint64, blob []byte) []byte {
	b := testFormat.Begin([]byte("prefix"))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(blob)))
	b = append(b, blob...)
	b = append(b, make([]byte, (8-(len(b)-6)%8)%8)...)
	b = binary.LittleEndian.AppendUint64(b, 0xfeed)
	return Seal(b, 6)[6:]
}

func readFrame(b []byte) (vals []uint64, blob []byte, tail uint64, rest []byte, err error) {
	r := testFormat.Open(b)
	vals = make([]uint64, r.Count(8, "value"))
	for i := range vals {
		vals[i] = r.U64()
	}
	blob = r.Blob("blob")
	r.Pad8()
	tail = r.U64()
	rest, err = r.Close()
	return vals, blob, tail, rest, err
}

func TestFrameRoundTrip(t *testing.T) {
	enc := frame([]uint64{1, 2, 3}, []byte("abc"))
	vals, blob, tail, rest, err := readFrame(append(enc, "next"...))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[2] != 3 || string(blob) != "abc" || tail != 0xfeed || string(rest) != "next" {
		t.Fatalf("got %v %q %#x %q", vals, blob, tail, rest)
	}
}

// TestRejectionsWrapTheFormatSentinel: every malformed input is refused
// with the format's own sentinel, a wrong version with Unsupported alone.
func TestRejectionsWrapTheFormatSentinel(t *testing.T) {
	enc := frame([]uint64{1, 2, 3}, []byte("abc"))
	hugeCount := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(hugeCount[8:], 1<<31)
	badCRC := bytes.Clone(enc)
	badCRC[len(badCRC)-1] ^= 1
	badMagic := bytes.Clone(enc)
	badMagic[0] = 'X'
	wrongVersion := bytes.Clone(enc)
	wrongVersion[6] = 9
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"empty":         {nil, errCorrupt},
		"magic only":    {enc[:6], errCorrupt},
		"bad magic":     {badMagic, errCorrupt},
		"wrong version": {wrongVersion, errVersion},
		"huge count":    {hugeCount, errCorrupt},
		"truncated":     {enc[:len(enc)-1], errCorrupt},
		"bad checksum":  {badCRC, errCorrupt},
	} {
		_, _, _, _, err := readFrame(tc.b)
		if !errors.Is(err, tc.want) || (tc.want == errVersion) == errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want %v alone", name, err, tc.want)
		}
	}
}

// TestReaderIsSticky: after the first failure every read is a zero value
// and the first error is the one reported, so decoders check once.
func TestReaderIsSticky(t *testing.T) {
	r := testFormat.Reader([]byte{1, 2})
	if r.U32() != 0 || r.Err() == nil {
		t.Fatal("short read did not fail")
	}
	first := r.Err()
	if r.U8() != 0 || r.Take(0) != nil || r.Err() != first {
		t.Fatal("a read after the failure succeeded or replaced the error")
	}
	if err := testFormat.Reader([]byte{1}).End(); !errors.Is(err, errCorrupt) {
		t.Fatalf("unread trailing byte: err = %v", err)
	}
}

// TestVersionRange: Open accepts every version from Oldest to Version and
// reports the one it read; a version below or above the range wraps
// Unsupported alone. An Oldest of 0 accepts Version only.
func TestVersionRange(t *testing.T) {
	enc := frame([]uint64{7}, nil)
	ranged := testFormat
	ranged.Oldest = 2
	for _, tc := range []struct {
		f      *Format
		lo, hi uint16 // the accepted range
	}{{&ranged, 2, 3}, {&testFormat, 3, 3}} {
		for v := uint16(0); v <= tc.hi+1; v++ {
			b := bytes.Clone(enc)
			binary.LittleEndian.PutUint16(b[6:], v)
			r := tc.f.Open(b)
			if v >= tc.lo && v <= tc.hi {
				if r.Err() != nil || r.Version() != v {
					t.Errorf("oldest %d: version %d: err %v, Version() = %d", tc.f.Oldest, v, r.Err(), r.Version())
				}
				continue
			}
			if err := r.Err(); !errors.Is(err, errVersion) || errors.Is(err, errCorrupt) || r.Version() != 0 {
				t.Errorf("oldest %d: version %d: err = %v, Version() = %d; want Unsupported alone", tc.f.Oldest, v, err, r.Version())
			}
		}
	}
	if v := testFormat.Reader(enc).Version(); v != 0 {
		t.Errorf("unframed reader reports version %d", v)
	}
}
