package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/framing"
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

var snapshotFormat = framing.Format{
	Magic: [6]byte{'D', 'V', 'S', 'N', 'A', 'P'}, Version: SnapshotVersion, Name: "DVSNAP",
	Corrupt: ErrSnapshotCorrupt, Unsupported: ErrSnapshotVersion,
}

// snapHeader is the fixed header DVSNAP and DVSNPD records share; Snapshot
// and SnapshotDelta embed it, so its fields read as theirs:
//
//	fingerprint u64 | superstep i64 | numVertices u64
//	| flags u8 (1=activateAll 2=stopped 4=done 8=workQueue)
type snapHeader struct {
	Fingerprint uint64 // graph.Fingerprint of the run's graph
	Superstep   int    // the completed superstep whose barrier this is
	NumVertices int

	ActivateAll bool // master hook requested ActivateAll for superstep+1
	Stopped     bool // master hook stopped the run
	Done        bool // the run terminated at this barrier (stop/quiescence)
	WorkQueue   bool // taken under the WorkQueue scheduler (the queue is meaningful)
}

func (h *snapHeader) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(h.Superstep)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.NumVertices))
	var flags byte
	for i, set := range [...]bool{h.ActivateAll, h.Stopped, h.Done, h.WorkQueue} {
		if set {
			flags |= 1 << i
		}
	}
	return append(dst, flags)
}

func readSnapHeader(r *framing.Reader) snapHeader {
	h := snapHeader{Fingerprint: r.U64(), Superstep: int(r.I64())}
	if n := r.U64(); n > math.MaxInt32 {
		r.Fail("vertex count %d exceeds input", n)
	} else {
		h.NumVertices = int(n)
	}
	flags := r.U8()
	if flags&^byte(15) != 0 {
		r.Fail("unknown flag bits %#x", flags)
	}
	h.ActivateAll, h.Stopped, h.Done, h.WorkQueue = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	return h
}

// appendAggs and readAggs are the aggregates block both records carry:
// count u32, value f64 ×count.
func appendAggs(dst []byte, aggs []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(aggs)))
	for _, v := range aggs {
		dst = AppendFloat64(dst, v)
	}
	return dst
}

func readAggs(r *framing.Reader) []float64 {
	aggs := make([]float64, r.Count(8, "aggregator"))
	for i := range aggs {
		aggs[i] = r.F64()
	}
	return aggs
}

// Snapshot is a barrier snapshot: its header, whose fields (Fingerprint,
// Superstep, NumVertices, ActivateAll, Stopped, Done, WorkQueue) read as
// Snapshot's, its aggregates, and its seven sections as the bytes DVSNAP
// stores them, which are what a DVSNPD record patches. Of the sections,
// Inbox, Values and Extra are exported: the engine's codecs decode the
// first two at restore time, and Extra is the caller's. A Snapshot comes
// from the engine (Engine.Snapshot, a checkpoint), which writes its
// sections, or from a decoder (DecodeSnapshot, LoadChain), which checks
// them against NumVertices; Continue and Warm check them again.
type Snapshot struct {
	snapHeader

	Aggs []float64 // committed aggregator values, registration order

	// active and removed are bitsets over the vertices — vertex u is bit
	// u%8 of byte u/8, and the bits past NumVertices are zero: who runs
	// next superstep without a message, and who was removed from the
	// computation.
	active, removed []byte
	// queue is the WorkQueue scheduler's runnable list for superstep+1,
	// concatenated across workers in worker order: count u32, vertex u32
	// ×count (count 0 under ScanAll).
	queue []byte
	// inboxCounts is u32 ×NumVertices: how many messages each vertex was
	// delivered at this barrier.
	inboxCounts []byte
	// Inbox holds those messages vertex-major, each encoded with the run's
	// message codec.
	Inbox []byte
	// Values holds the vertex values, each encoded with the run's value
	// codec.
	Values []byte
	// Extra is an opaque caller payload (CheckpointOptions.Extra); the ΔV
	// VM serializes its machine state here.
	Extra []byte
}

// firstBlob is the first of the sections DVSNAP stores with a u64 length
// prefix (inbox, values, extra); the others' lengths follow from the
// header, or, for the queue, from its own count.
const firstBlob = 4

// sections points at s's seven sections, in DVSNAP order (see
// snapSectionNames).
func (s *Snapshot) sections() [numSnapSections]*[]byte {
	return [...]*[]byte{&s.active, &s.removed, &s.queue, &s.inboxCounts, &s.Inbox, &s.Values, &s.Extra}
}

// copyFrom makes s a deep copy of src, reusing s's buffers.
func (s *Snapshot) copyFrom(src *Snapshot) {
	s.snapHeader, s.Aggs = src.snapHeader, append(s.Aggs[:0], src.Aggs...)
	sec := s.sections()
	for i, p := range src.sections() {
		*sec[i] = append((*sec[i])[:0], *p...)
	}
}

// setBitAt sets bit u of a section bitset.
func setBitAt(b []byte, u int) { b[u>>3] |= 1 << (u & 7) }

// checkSections rejects sections that contradict s.NumVertices: bitsets
// or inbox counts of the wrong length, a bitset bit set past the last
// vertex (so a decoded snapshot re-encodes to its input byte for byte),
// or a queue that is not a count followed by that many vertices in range.
func (s *Snapshot) checkSections() error {
	n := s.NumVertices
	for i, b := range [...][]byte{s.active, s.removed} {
		if len(b) != (n+7)/8 {
			return fmt.Errorf("%w: %s bitset is %d bytes, %d vertices need %d",
				ErrSnapshotCorrupt, snapSectionNames[i], len(b), n, (n+7)/8)
		}
		if n%8 != 0 && b[len(b)-1]>>(n%8) != 0 {
			return fmt.Errorf("%w: %s bitset sets a bit past vertex %d",
				ErrSnapshotCorrupt, snapSectionNames[i], n-1)
		}
	}
	if len(s.inboxCounts) != 4*n {
		return fmt.Errorf("%w: inbox counts are %d bytes, %d vertices need %d",
			ErrSnapshotCorrupt, len(s.inboxCounts), n, 4*n)
	}
	r := snapshotFormat.Reader(s.queue)
	for i := r.Count(4, "queue"); i > 0; i-- {
		if v := r.U32(); int64(v) >= int64(n) {
			r.Fail("queued vertex %d out of range", v)
		}
	}
	return r.End()
}

// AppendTo appends the binary encoding of s to dst and returns the extended
// slice, growing dst once. The layout (all integers little-endian), framed
// as DESIGN.md §10 describes:
//
//	magic "DVSNAP" | version u16 | header (see snapHeader)
//	| aggs:   count u32, value f64 ×count
//	| active: bitset ceil(n/8)
//	| removed: bitset ceil(n/8)
//	| queue:  count u32, vertex u32 ×count
//	| inbox:  count u32 ×n, payload len u64 + bytes
//	| values: len u64 + bytes
//	| extra:  len u64 + bytes
//	| crc32(IEEE) of everything above, u32
func (s *Snapshot) AppendTo(dst []byte) []byte {
	start, size := len(dst), 8+25+4+8*len(s.Aggs)+8*(numSnapSections-firstBlob)+4
	for _, p := range s.sections() {
		size += len(*p)
	}
	dst = slices.Grow(dst, size)
	dst = snapshotFormat.Begin(dst)
	dst = s.snapHeader.appendTo(dst)
	dst = appendAggs(dst, s.Aggs)
	for i, p := range s.sections() {
		if i >= firstBlob {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(*p)))
		}
		dst = append(dst, *p...)
	}
	return framing.Seal(dst, start)
}

// decodeSnapshot reads one DVSNAP record from the front of b and checks
// its sections; the snapshot's sections alias b. It returns the bytes
// after the record.
func decodeSnapshot(b []byte) (*Snapshot, []byte, error) {
	r := snapshotFormat.Open(b)
	s := &Snapshot{snapHeader: readSnapHeader(r), Aggs: readAggs(r)}
	bits := (s.NumVertices + 7) / 8
	s.active, s.removed = r.Take(bits), r.Take(bits)
	queue := r.Rest()
	r.Take(4 * r.Count(4, "queue"))
	s.queue = queue[: len(queue)-len(r.Rest()) : len(queue)-len(r.Rest())]
	s.inboxCounts = r.Take(4 * s.NumVertices)
	s.Inbox, s.Values, s.Extra = r.Blob("inbox"), r.Blob("values"), r.Blob("extra")
	rest, err := r.Close()
	if err == nil {
		err = s.checkSections()
	}
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// DecodeSnapshot decodes one snapshot from the front of b, returning the
// snapshot and any remaining bytes (snapshots are self-delimiting, so
// concatenated streams — e.g. a CheckpointOptions.Sink — can be decoded in
// a loop). Corrupt, truncated, or wrong-version input returns an error
// wrapping ErrSnapshotCorrupt or ErrSnapshotVersion; it never panics. The
// snapshot shares no bytes with b, and AppendTo re-encodes it to the bytes
// it was decoded from.
func DecodeSnapshot(b []byte) (*Snapshot, []byte, error) {
	s, rest, err := decodeSnapshot(b)
	if err != nil {
		return nil, nil, err
	}
	c := new(Snapshot)
	c.copyFrom(s)
	return c, rest, nil
}

// ---------------------------------------------------------------------------
// Checkpoint configuration.

// CheckpointOptions enable barrier snapshots for a run. At the end of every
// Every-th completed superstep — and, regardless of Every, when a
// cancellation or deadline aborts the run — the engine serializes its
// state and appends it to the checkpoint chain in Dir (see chain.go) and/or
// writes it to Sink (full snapshots back to back; they are
// self-delimiting). Stats.CheckpointPath names the chain record last
// written; LoadChain resumes from it.
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
	// Dir holds the run's checkpoint chain: a full base record, then CRC'd
	// DVSNPD delta records holding only the bytes that changed since the
	// previous capture, rebased every DefaultRebaseEvery records. A Dir
	// that already holds a chain is appended to. Empty disables file
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
