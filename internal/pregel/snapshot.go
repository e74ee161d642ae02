package pregel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// snapHeader is the fixed header DVSNAP and DVSNPD records share:
//
//	fingerprint u64 | superstep i64 | numVertices u64
//	| flags u8 (1=activateAll 2=stopped 4=done 8=workQueue)
type snapHeader struct {
	fingerprint                           uint64
	superstep, n                          int
	activateAll, stopped, done, workQueue bool
}

func (s *Snapshot) header() snapHeader {
	return snapHeader{s.Fingerprint, s.Superstep, s.NumVertices, s.ActivateAll, s.Stopped, s.Done, s.WorkQueue}
}

func (h snapHeader) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(h.superstep)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.n))
	var flags byte
	for i, set := range [...]bool{h.activateAll, h.stopped, h.done, h.workQueue} {
		if set {
			flags |= 1 << i
		}
	}
	return append(dst, flags)
}

func readSnapHeader(r *framing.Reader) snapHeader {
	h := snapHeader{fingerprint: r.U64(), superstep: int(r.I64())}
	if n := r.U64(); n > math.MaxInt32 {
		r.Fail("vertex count %d exceeds input", n)
	} else {
		h.n = int(n)
	}
	flags := r.U8()
	if flags&^byte(15) != 0 {
		r.Fail("unknown flag bits %#x", flags)
	}
	h.activateAll, h.stopped, h.done, h.workQueue = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
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

// AppendTo appends the binary encoding of s to dst and returns the extended
// slice. The layout (all integers little-endian), framed as DESIGN.md §10
// describes:
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
	var sec [numSnapSections][]byte
	return s.encode(dst, &sec)
}

// encode is AppendTo that also points sec at the seven sections inside the
// encoding. It grows dst once, to exactly the encoded size.
func (s *Snapshot) encode(dst []byte, sec *[numSnapSections][]byte) []byte {
	start := len(dst)
	// Magic and version, header, aggregates, sections, CRC.
	dst = slices.Grow(dst, 8+25+4+8*len(s.Aggs)+s.sectionsLen()+4)
	dst = snapshotFormat.Begin(dst)
	dst = s.header().appendTo(dst)
	dst = appendAggs(dst, s.Aggs)
	dst = s.appendSections(dst, sec)
	return framing.Seal(dst, start)
}

// sectionsLen is the encoded length of s's seven sections.
func (s *Snapshot) sectionsLen() int {
	return (len(s.Active)+7)/8 + (len(s.Removed)+7)/8 + 4 + 4*len(s.Queue) + 4*len(s.InboxCounts) +
		8 + len(s.Inbox) + 8 + len(s.Values) + 8 + len(s.Extra)
}

// appendSections appends s's seven sections (see snapSectionNames) in the
// DVSNAP layout and points sec at each section's bytes — a length prefix
// is framing, not section — inside the result.
func (s *Snapshot) appendSections(dst []byte, sec *[numSnapSections][]byte) []byte {
	dst = slices.Grow(dst, s.sectionsLen()) // no append below moves dst, so sec can alias it
	for i := range sec {
		start := len(dst)
		switch i {
		case 0:
			dst = appendBitset(dst, s.Active)
		case 1:
			dst = appendBitset(dst, s.Removed)
		case 2:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Queue)))
			for _, v := range s.Queue {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
			}
		case 3:
			for _, c := range s.InboxCounts {
				dst = binary.LittleEndian.AppendUint32(dst, c)
			}
		default:
			b := [...][]byte{s.Inbox, s.Values, s.Extra}[i-4]
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b)))
			start = len(dst)
			dst = append(dst, b...)
		}
		sec[i] = dst[start:len(dst):len(dst)]
	}
	return dst
}

// sectionView returns s's sections for reading only: the first four
// serialized, the inbox, values and extra s's own slices.
func sectionView(s *Snapshot) (sec [numSnapSections][]byte) {
	head := *s
	head.Inbox, head.Values, head.Extra = nil, nil, nil
	head.appendSections(nil, &sec)
	sec[4], sec[5], sec[6] = s.Inbox, s.Values, s.Extra
	return sec
}

// snapshotSections returns s's sections in buffers the caller owns. The
// inbox, values and extra are copied by append, not into a presized
// buffer: a presized one is zeroed first, and these are megabytes a batch.
func snapshotSections(s *Snapshot) [numSnapSections][]byte {
	sec := sectionView(s)
	for i := 4; i < numSnapSections; i++ {
		sec[i] = bytes.Clone(sec[i])
	}
	return sec
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

// decodeSnapshotFrame reads one DVSNAP record from the front of b into its
// header, aggregates and seven sections, which alias b, and returns the
// bytes after it. The sections are sliced, not checked against n; see
// checkSections.
func decodeSnapshotFrame(b []byte) (h snapHeader, aggs []float64, sec [numSnapSections][]byte, rest []byte, err error) {
	r := snapshotFormat.Open(b)
	h = readSnapHeader(r)
	aggs = readAggs(r)
	bits := (h.n + 7) / 8
	sec[0], sec[1] = r.Take(bits), r.Take(bits)
	queue := r.Rest()
	r.Take(4 * r.Count(4, "queue"))
	sec[2] = queue[:len(queue)-len(r.Rest())]
	sec[3] = r.Take(4 * h.n)
	for i := 4; i < numSnapSections; i++ {
		sec[i] = r.Blob(snapSectionNames[i])
	}
	rest, err = r.Close()
	return h, aggs, sec, rest, err
}

// DecodeSnapshot decodes one snapshot from the front of b, returning the
// snapshot and any remaining bytes (snapshots are self-delimiting, so
// concatenated streams — e.g. a CheckpointOptions.Sink — can be decoded in
// a loop). Corrupt, truncated, or wrong-version input returns an error
// wrapping ErrSnapshotCorrupt or ErrSnapshotVersion; it never panics. The
// snapshot shares no bytes with b.
func DecodeSnapshot(b []byte) (*Snapshot, []byte, error) {
	h, aggs, sec, rest, err := decodeSnapshotFrame(b)
	if err != nil {
		return nil, nil, err
	}
	s, err := snapshotFromSections(h, aggs, sec)
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// ReadSnapshotFile decodes the snapshot stored in path (as written by
// CheckpointOptions.Dir).
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
