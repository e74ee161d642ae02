package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"unsafe"
)

// This file implements barrier snapshots: a versioned binary serialization
// of everything the engine needs to continue a run from a superstep barrier
// — vertex values, the active/removed sets, committed aggregator state, the
// work-queue contents, the messages delivered at the barrier but not yet
// consumed, and an opaque caller payload (the ΔV VM stores its flat state
// and phase machine there). See DESIGN.md §10 "Checkpoint/restore".
//
// Snapshots are only taken at superstep barriers, where every worker is
// parked and no sends are in flight, so a single-threaded walk over engine
// state observes a consistent cut — the classic Pregel checkpoint argument.

// SnapshotVersion is the current snapshot format version. Decoding rejects
// any other version. Version 2 has version 1's layout; what changed is the
// graph fingerprint inside it (graph.Fingerprint became a composable arc
// sum). No graph hashes to a version-1 fingerprint any more, so a
// version-1 file is refused for what it is — ErrSnapshotVersion — rather
// than decoded and then reported as belonging to some other graph. The
// delta-record and chain-manifest versions moved with it for the same
// reason.
const SnapshotVersion = 2

// snapshotMagic prefixes every encoded snapshot.
var snapshotMagic = [6]byte{'D', 'V', 'S', 'N', 'A', 'P'}

// ErrSnapshotCorrupt is wrapped by every snapshot decoding error caused by
// malformed input (truncation, bad magic, checksum mismatch, impossible
// section lengths).
var ErrSnapshotCorrupt = errors.New("pregel: corrupt snapshot")

// ErrSnapshotVersion is wrapped when the input is a snapshot of an
// unsupported format version.
var ErrSnapshotVersion = errors.New("pregel: unsupported snapshot version")

// ErrSnapshotMismatch is wrapped when a structurally valid snapshot cannot
// resume the engine it was handed to: wrong graph fingerprint, wrong vertex
// count, or a different aggregator registration.
var ErrSnapshotMismatch = errors.New("pregel: snapshot does not match run")

// Snapshot is a decoded barrier snapshot. Values and Inbox hold
// codec-encoded bytes (the engine's ValueCodec/MessageCodec decode them at
// restore time); everything else is fully decoded.
type Snapshot struct {
	Version     uint16
	Fingerprint uint64 // graph.Fingerprint of the run's graph
	Superstep   int    // the completed superstep whose barrier this is
	NumVertices int

	ActivateAll bool // master hook requested ActivateAll for superstep+1
	Stopped     bool // master hook stopped the run
	Done        bool // the run terminated at this barrier (stop/quiescence)
	WorkQueue   bool // taken under the WorkQueue scheduler (Queue is meaningful)

	Aggs []float64 // committed aggregator values, registration order

	Active  []bool // per vertex: runs next superstep without a message
	Removed []bool // per vertex: removed from the computation

	// Queue is the WorkQueue scheduler's runnable list for superstep+1,
	// concatenated across workers in worker order (empty under ScanAll).
	Queue []VertexID

	// InboxCounts[u] is the number of messages delivered to vertex u at
	// this barrier; the payloads sit in Inbox, vertex-major, each encoded
	// with the run's message codec.
	InboxCounts []uint32
	Inbox       []byte

	// Values holds the n vertex values, each encoded with the run's value
	// codec.
	Values []byte

	// Extra is an opaque caller payload (CheckpointOptions.Extra); the ΔV
	// VM serializes its machine state here.
	Extra []byte
}

// AppendTo appends the binary encoding of s to dst and returns the extended
// slice. The layout (all integers little-endian):
//
//	magic "DVSNAP" | version u16 | fingerprint u64 | superstep i64
//	| numVertices u64 | flags u8 (1=activateAll 2=stopped 4=done 8=workQueue)
//	| aggs:   count u32, value f64 ×count
//	| active: bitset ceil(n/8)
//	| removed: bitset ceil(n/8)
//	| queue:  count u32, vertex u32 ×count
//	| inbox:  count u32 ×n, payload len u64 + bytes
//	| values: len u64 + bytes
//	| extra:  len u64 + bytes
//	| crc32(IEEE) of everything above, u32
func (s *Snapshot) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, snapshotMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, SnapshotVersion)
	dst = binary.LittleEndian.AppendUint64(dst, s.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.Superstep)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.NumVertices))
	var flags byte
	if s.ActivateAll {
		flags |= 1
	}
	if s.Stopped {
		flags |= 2
	}
	if s.Done {
		flags |= 4
	}
	if s.WorkQueue {
		flags |= 8
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Aggs)))
	for _, v := range s.Aggs {
		dst = AppendFloat64(dst, v)
	}
	dst = appendBitset(dst, s.Active)
	dst = appendBitset(dst, s.Removed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Queue)))
	for _, v := range s.Queue {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, c := range s.InboxCounts {
		dst = binary.LittleEndian.AppendUint32(dst, c)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Inbox)))
	dst = append(dst, s.Inbox...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Values)))
	dst = append(dst, s.Values...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Extra)))
	dst = append(dst, s.Extra...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

func appendBitset(dst []byte, bits []bool) []byte {
	n := (len(bits) + 7) / 8
	for i := 0; i < n; i++ {
		var b byte
		for j := 0; j < 8; j++ {
			k := i*8 + j
			if k < len(bits) && bits[k] {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// snapReader is a bounds-checked cursor over snapshot bytes; every decode
// error is reported as a wrapped ErrSnapshotCorrupt, never a panic.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated (need %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *snapReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *snapReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 length and validates it against the remaining input at
// unit bytes per element, so corrupted lengths cannot cause huge
// allocations.
func (r *snapReader) count(unit int, what string) int {
	n := int(r.u32())
	if r.err == nil && n*unit > len(r.b) {
		r.fail("%s count %d exceeds remaining input", what, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// DecodeSnapshot decodes one snapshot from the front of b, returning the
// snapshot and any remaining bytes (snapshots are self-delimiting, so
// concatenated streams — e.g. a CheckpointOptions.Sink — can be decoded in
// a loop). Corrupt, truncated, or wrong-version input returns an error
// wrapping ErrSnapshotCorrupt or ErrSnapshotVersion; it never panics.
func DecodeSnapshot(b []byte) (*Snapshot, []byte, error) {
	r := &snapReader{b: b}
	if magic := r.take(len(snapshotMagic)); r.err == nil {
		for i := range snapshotMagic {
			if magic[i] != snapshotMagic[i] {
				r.fail("bad magic")
				break
			}
		}
	}
	s := &Snapshot{}
	s.Version = r.u16()
	if r.err == nil && s.Version != SnapshotVersion {
		return nil, nil, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, s.Version, SnapshotVersion)
	}
	s.Fingerprint = r.u64()
	s.Superstep = int(int64(r.u64()))
	n64 := r.u64()
	if r.err == nil && (n64 > uint64(len(r.b))*8+64 || n64 > math.MaxInt32) {
		// Each vertex costs at least 1/8 byte (two bitsets + counts), so a
		// vertex count wildly larger than the input is corrupt.
		r.fail("vertex count %d exceeds input", n64)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	s.NumVertices = int(n64)
	flags := r.u8()
	s.ActivateAll = flags&1 != 0
	s.Stopped = flags&2 != 0
	s.Done = flags&4 != 0
	s.WorkQueue = flags&8 != 0
	if r.err == nil && flags&^byte(15) != 0 {
		r.fail("unknown flag bits %#x", flags)
	}
	nAggs := r.count(8, "aggregator")
	s.Aggs = make([]float64, 0, nAggs)
	for i := 0; i < nAggs && r.err == nil; i++ {
		s.Aggs = append(s.Aggs, math.Float64frombits(r.u64()))
	}
	s.Active = r.bitset(s.NumVertices)
	s.Removed = r.bitset(s.NumVertices)
	nQueue := r.count(4, "queue")
	s.Queue = make([]VertexID, 0, nQueue)
	for i := 0; i < nQueue && r.err == nil; i++ {
		v := r.u32()
		if r.err == nil && int(v) >= s.NumVertices {
			r.fail("queue vertex %d out of range", v)
		}
		s.Queue = append(s.Queue, VertexID(v))
	}
	if r.err == nil && s.NumVertices*4 > len(r.b) {
		r.fail("inbox counts exceed input")
	}
	s.InboxCounts = make([]uint32, 0, maxZero(s.NumVertices, r.err))
	for i := 0; i < s.NumVertices && r.err == nil; i++ {
		s.InboxCounts = append(s.InboxCounts, r.u32())
	}
	s.Inbox = r.blob("inbox")
	s.Values = r.blob("values")
	s.Extra = r.blob("extra")
	if r.err != nil {
		return nil, nil, r.err
	}
	consumed := len(b) - len(r.b)
	wantCRC := r.u32()
	if r.err != nil {
		return nil, nil, r.err
	}
	if got := crc32.ChecksumIEEE(b[:consumed]); got != wantCRC {
		return nil, nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrSnapshotCorrupt, got, wantCRC)
	}
	return s, r.b, nil
}

func maxZero(n int, err error) int {
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func (r *snapReader) bitset(n int) []bool {
	raw := r.take((n + 7) / 8)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out
}

func (r *snapReader) blob(what string) []byte {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("%s length %d exceeds remaining input", what, n)
	}
	if r.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.take(int(n)))
	return out
}

// ReadSnapshot decodes the first snapshot from r.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s, _, err := DecodeSnapshot(b)
	return s, err
}

// ReadSnapshotFile decodes the snapshot stored in path (as written by
// CheckpointOptions.Dir or WriteSnapshotFile).
func ReadSnapshotFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, _, err := DecodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshotFile encodes s into path. The write is atomic (temp
// file + rename), so a crash — e.g. a sharded peer SIGKILLed mid-
// checkpoint — can leave a missing snapshot but never a torn one, and
// resume can always trust whatever files exist.
func WriteSnapshotFile(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, s.AppendTo(nil), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SnapshotFileName is the name pattern used for snapshots written into
// CheckpointOptions.Dir: one file per checkpointed superstep.
func SnapshotFileName(superstep int) string {
	return fmt.Sprintf("snap-%06d.dvsnap", superstep)
}

// ---------------------------------------------------------------------------
// Checkpoint configuration.

// CheckpointOptions enable barrier snapshots for a run. At the end of every
// Every-th completed superstep — and, regardless of Every, when a
// cancellation, deadline, or step timeout aborts the run — the engine
// serializes its state and writes it to Dir (one snap-NNNNNN.dvsnap file
// per checkpoint) and/or Sink (snapshots appended back to back; they are
// self-delimiting). Stats.CheckpointPath names the last file written.
//
// Capture happens only at barriers, after the master hook: every worker is
// parked, no messages are in flight (the delivered-but-unconsumed inbox is
// part of the snapshot), so the cut is consistent by construction. A run
// aborted between the compute and exchange phases is first drained through
// the exchange to the next barrier before the final snapshot is taken. A
// run aborted by a contained panic (*RunError) does NOT get a fresh final
// snapshot — the panicking superstep's state is not trustworthy — but
// Stats.CheckpointPath still names the last periodic checkpoint, if any.
type CheckpointOptions struct {
	// Every writes a periodic snapshot at the barrier of every superstep s
	// with (s+1) % Every == 0 (Every=1: every superstep). Zero means no
	// periodic snapshots; abort-time snapshots are still written.
	Every int
	// Dir receives one snapshot file per checkpoint. Empty disables file
	// output.
	Dir string
	// Sink, when non-nil, receives every snapshot's bytes appended in
	// order. Decode them with DecodeSnapshot in a loop (the last one is
	// the freshest).
	Sink io.Writer
	// Extra, when non-nil, is called at every capture to append an opaque
	// caller payload to the snapshot (returned to the caller verbatim in
	// Snapshot.Extra on decode). The ΔV VM uses this for its machine
	// state.
	Extra func(dst []byte) []byte
	// Incremental switches Dir from one full snapshot file per checkpoint
	// to a checkpoint chain (see chain.go): a full base record, then CRC'd
	// DVSNPD delta records holding only the bytes that changed since the
	// previous checkpoint — O(touched) instead of O(|V|) between nearby
	// barriers. Resume with LoadChain(dir). Ignored when Dir is empty;
	// Sink still receives full snapshots.
	Incremental bool
	// RebaseEvery caps consecutive delta records per base in incremental
	// mode (<=0: DefaultRebaseEvery).
	RebaseEvery int
}

// enabled reports whether the options request any output at all.
func (c *CheckpointOptions) enabled() bool {
	return c != nil && (c.Dir != "" || c.Sink != nil)
}

// ---------------------------------------------------------------------------
// Value codecs.

// ValueCodec serializes vertex values (or messages) of type T for
// snapshots. AppendValue must be the exact inverse of DecodeValue.
// Implementations should be deterministic and allocation-free on the append
// path so checkpoint capture stays cheap.
type ValueCodec[T any] interface {
	// AppendValue appends the encoding of v to dst.
	AppendValue(dst []byte, v T) []byte
	// DecodeValue decodes one value from the front of src, returning the
	// value and the remaining bytes. Truncated input must return an error,
	// never panic.
	DecodeValue(src []byte) (v T, rest []byte, err error)
}

// AppendFloat64 appends f as 8 little-endian IEEE-754 bytes; the canonical
// building block for hand-written codecs.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// DecodeFloat64 decodes a float64 written by AppendFloat64.
func DecodeFloat64(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated float64", ErrSnapshotCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), src[8:], nil
}

// AppendInt64 appends v as 8 little-endian bytes.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// DecodeInt64 decodes an int64 written by AppendInt64.
func DecodeInt64(src []byte) (int64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated int64", ErrSnapshotCorrupt)
	}
	return int64(binary.LittleEndian.Uint64(src)), src[8:], nil
}

// Float64Codec is the ValueCodec for plain float64 values/messages.
type Float64Codec struct{}

// AppendValue implements ValueCodec.
func (Float64Codec) AppendValue(dst []byte, v float64) []byte { return AppendFloat64(dst, v) }

// DecodeValue implements ValueCodec.
func (Float64Codec) DecodeValue(src []byte) (float64, []byte, error) { return DecodeFloat64(src) }

// PODCodec builds a ValueCodec for a fixed-size, pointer-free ("plain old
// data") type T by copying its in-memory representation. It returns an
// error when T contains pointers, slices, maps, strings, or any other
// indirection. POD encodings include padding bytes and use native byte
// order, so they are only portable between identical architectures; use a
// hand-written codec for portable snapshots.
func PODCodec[T any]() (ValueCodec[T], error) {
	var zero T
	t := reflect.TypeOf(&zero).Elem()
	if !podSafe(t) {
		return nil, fmt.Errorf("pregel: type %v contains pointers and needs a hand-written ValueCodec", t)
	}
	return podCodec[T]{size: int(t.Size())}, nil
}

// MustPODCodec is PODCodec that panics on non-POD types; for package-level
// codec variables of types known to be POD.
func MustPODCodec[T any]() ValueCodec[T] {
	c, err := PODCodec[T]()
	if err != nil {
		panic(err)
	}
	return c
}

func podSafe(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return podSafe(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !podSafe(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

type podCodec[T any] struct{ size int }

func (c podCodec[T]) AppendValue(dst []byte, v T) []byte {
	return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v)), c.size)...)
}

func (c podCodec[T]) DecodeValue(src []byte) (T, []byte, error) {
	var v T
	if len(src) < c.size {
		return v, nil, fmt.Errorf("%w: truncated value (need %d bytes, have %d)", ErrSnapshotCorrupt, c.size, len(src))
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&v)), c.size), src[:c.size])
	return v, src[c.size:], nil
}

// WriteTo writes the encoded snapshot to w (a convenience for Sink-style
// plumbing).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b := s.AppendTo(nil)
	n, err := w.Write(b)
	return int64(n), err
}
