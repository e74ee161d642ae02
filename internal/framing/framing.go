// Package framing is the one frame the repository's on-disk formats share
// (DVSNAP, DVSNPD, DVCHMF, DVGRAF): a six-byte magic, a u16 format version,
// a little-endian body, and an IEEE CRC-32 of every byte before it. Each
// format is a Format value naming its magic, version and the error
// sentinels its decoder has always wrapped, plus the list of fields and
// sections its own code reads and writes between Begin and Seal.
//
// The Reader is a bounds-checked, sticky-error cursor: after the first
// failure every read returns a zero value and the failure stays reported,
// so a decoder reads its whole layout and checks the error once. No read
// ever panics, and no length or count taken from the input sizes an
// allocation before the bytes it promises are known to be there.
package framing

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Format identifies one framed format.
type Format struct {
	Magic [6]byte
	// Version is the version Begin writes. Open accepts it and every
	// version down to Oldest; an Oldest of 0 means Version alone.
	Version, Oldest uint16
	// Name labels the format in error messages.
	Name string
	// Corrupt is wrapped by every error caused by malformed input
	// (truncation, bad magic, checksum mismatch, impossible lengths), and
	// Unsupported by a version outside [Oldest, Version].
	Corrupt, Unsupported error
}

// Begin appends f's magic and version to dst: the start of a frame that
// Seal closes.
func (f *Format) Begin(dst []byte) []byte {
	dst = append(dst, f.Magic[:]...)
	return binary.LittleEndian.AppendUint16(dst, f.Version)
}

// Seal appends the CRC-32 of dst[start:], closing the frame Begin opened
// at start.
func Seal(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Reader is a bounds-checked cursor over f-formatted bytes; see the package
// comment for its error discipline.
type Reader struct {
	f       *Format
	in      []byte // from the start of the frame (or payload), for Close and Pad8
	b       []byte // unread
	version uint16
	err     error
}

// Open starts reading the frame at the front of b: it checks f's magic
// and version and leaves the reader on the first body byte. A version
// outside [f.Oldest, f.Version] is reported wrapping f.Unsupported,
// anything else wrapping f.Corrupt.
func (f *Format) Open(b []byte) *Reader {
	r := f.Reader(b)
	if magic := r.Take(len(f.Magic)); r.err == nil && string(magic) != string(f.Magic[:]) {
		r.Fail("bad magic")
	}
	oldest := f.Oldest
	if oldest == 0 {
		oldest = f.Version
	}
	if v := r.U16(); r.err == nil && (v < oldest || v > f.Version) {
		want := fmt.Sprint(f.Version)
		if oldest < f.Version {
			want = fmt.Sprintf("%d..%d", oldest, f.Version)
		}
		r.err = fmt.Errorf("%w: %s version %d, want %s", f.Unsupported, f.Name, v, want)
	} else {
		r.version = v
	}
	return r
}

// Version returns the format version Open read: one in [f.Oldest,
// f.Version] for a frame that opened, 0 for an unframed payload or a frame
// whose header failed.
func (r *Reader) Version() uint16 { return r.version }

// Reader reads b as an unframed payload of f — no magic, version or CRC,
// as for a section or a payload nested inside a frame. Errors wrap
// f.Corrupt.
func (f *Format) Reader(b []byte) *Reader { return &Reader{f: f, in: b, b: b} }

// Fail records a corrupt-input error, unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s: %s", r.f.Corrupt, r.f.Name, fmt.Sprintf(format, args...))
	}
}

// Err returns the first error recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.b }

// Take consumes and returns the next n bytes, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail("truncated (need %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and checks that count elements of unit
// bytes each fit in the unread input.
func (r *Reader) Count(unit int, what string) int {
	return r.count(uint64(r.U32()), unit, what)
}

// Count64 is Count for a u64 (or non-negative int64) count.
func (r *Reader) Count64(unit int, what string) int {
	return r.count(r.U64(), unit, what)
}

func (r *Reader) count(n uint64, unit int, what string) int {
	if r.err == nil && n > uint64(len(r.b)/unit) {
		r.Fail("%s count %d exceeds remaining input", what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Blob reads a u64 length and that many bytes, aliasing the input.
func (r *Reader) Blob(what string) []byte {
	return r.Take(r.Count64(1, what+" length"))
}

// Pad8 skips the padding up to the next multiple of 8 bytes from the start
// of the frame.
func (r *Reader) Pad8() {
	r.Take((8 - (len(r.in)-len(r.b))%8) % 8)
}

// Close reads the CRC-32 trailer, checks it against every byte from the
// start of the frame, and returns the bytes after the frame.
func (r *Reader) Close() ([]byte, error) {
	body := len(r.in) - len(r.b)
	want := r.U32()
	if r.err != nil {
		return nil, r.err
	}
	if got := crc32.ChecksumIEEE(r.in[:body]); got != want {
		r.Fail("checksum mismatch (got %08x, want %08x)", got, want)
		return nil, r.err
	}
	return r.b, nil
}

// End returns the first error recorded or, when the payload was read
// without error but bytes remain, an error for those trailing bytes.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
