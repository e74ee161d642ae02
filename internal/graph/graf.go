package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"unsafe"

	"repro/internal/framing"
)

// DVGRAF is the binary on-disk graph format. It stores exactly the
// compact representation — arc offsets, gap-varint adjacency stream,
// per-vertex byte offsets, optional weights — so a graph can be mapped
// straight from the file without ever holding the edge list on the heap
// twice. Layout (all integers little-endian), framed as DESIGN.md §10
// describes:
//
//	magic   [6]byte  "DVGRAF"
//	version u16      GraphFormatVersion
//	flags   u64      bit 0 directed, bit 1 weighted
//	n       u64      vertex count
//	arcs    u64      stored adjacency entries (== outOff[n])
//	cOutLen u64      gap-varint stream length in bytes
//	sum     u64      arc-hash sum of the stored arcs (version 2 only)
//	outOff  (n+1)×i64   arc offsets
//	cOutIdx (n+1)×u32   per-vertex byte offsets into the stream
//	pad     0..7 zero bytes to an 8-byte boundary
//	cOut    cOutLen bytes of gap-varint adjacency
//	pad     0..7 zero bytes to an 8-byte boundary
//	weights arcs×f64 (present iff the weighted flag is set)
//	crc     u32      IEEE CRC-32 of every preceding byte
//
// Sections start on 8-byte boundaries so an mmap'd file can be aliased
// directly as []int64/[]float64 slices on little-endian hosts (the header
// is 40 bytes in version 1, 48 in version 2). Only the out-direction is
// stored; the reverse adjacency is derivable and (re)built lazily after
// loading.
//
// sum is the Σ arcHash that Fingerprint finishes. The writer hashes the
// arrays it encodes, never a digest the graph carries, and a version-2
// graph loads with its digest set from sum instead of hashing its arcs:
// the stored digest identifies the graph, and whoever is about to serve
// the arrays re-hashes them (VerifyFingerprint). Every checksum and
// structural check runs either way, so memory safety never rests on sum.
// A version-1 file has no sum and computes its digest on first use.

// GraphFormatVersion is the DVGRAF version EncodeGraph writes. Decoding
// accepts it and version 1 and rejects any other.
const GraphFormatVersion = 2

// ErrGraphCorrupt is wrapped by every DVGRAF decoding error caused by
// malformed input (truncation, bad magic, checksum mismatch, impossible
// section lengths, invalid adjacency streams).
var ErrGraphCorrupt = errors.New("graph: corrupt DVGRAF data")

// ErrGraphVersion is wrapped when the input is a DVGRAF file of an
// unsupported format version.
var ErrGraphVersion = errors.New("graph: unsupported DVGRAF version")

var grafFormat = framing.Format{
	Magic: [6]byte{'D', 'V', 'G', 'R', 'A', 'F'}, Version: GraphFormatVersion, Oldest: 1, Name: "DVGRAF",
	Corrupt: ErrGraphCorrupt, Unsupported: ErrGraphVersion,
}

const (
	grafHeaderLen = 48 // magic + version + flags + n + arcs + cOutLen + sum
	grafFlagDir   = 1 << 0
	grafFlagWtd   = 1 << 1
)

// LoadMode selects the in-memory representation a DVGRAF graph is
// decoded into.
type LoadMode int

const (
	// LoadFlat decodes into the flat CSR: fastest iteration, largest
	// footprint. The varint stream is decoded directly into the
	// adjacency array — no intermediate edge list.
	LoadFlat LoadMode = iota
	// LoadCompact keeps the gap-varint form on the heap: ~2 bytes/arc
	// for the adjacency instead of 4, decoded on the fly by ArcIter.
	LoadCompact
	// LoadMmap maps the file and aliases the compact representation
	// straight into the mapping: load allocates almost nothing, and
	// cold adjacency pages stay on disk until iterated. Falls back to
	// LoadCompact when mapping is unavailable (non-unix, misaligned,
	// or big-endian hosts). Only valid with ReadGraphFile.
	LoadMmap
)

func (m LoadMode) String() string {
	switch m {
	case LoadFlat:
		return "flat"
	case LoadCompact:
		return "compact"
	case LoadMmap:
		return "mmap"
	}
	return fmt.Sprintf("LoadMode(%d)", int(m))
}

// hostLittleEndian reports whether the host stores integers
// little-endian, the precondition for aliasing file sections in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(x uint64) uint64 { return (8 - x%8) % 8 }

// EncodeGraph serializes g into the DVGRAF format. Both representations
// encode identically: a flat graph is gap-encoded on the fly.
func EncodeGraph(g *Graph) []byte {
	cOut, cOutIdx := g.cOut, g.cOutIdx
	if cOutIdx == nil {
		var err error
		cOut, cOutIdx, err = encodeAdj(g.outOff, g.outAdj, "out")
		if err != nil {
			// DVGRAF shares the uint32 stream-offset limit, so a graph
			// past it has no on-disk form either; surface the typed
			// overflow rather than writing corrupt offsets.
			panic(err)
		}
	}
	n := uint64(g.n)
	arcs := uint64(g.NumArcs())
	cOutLen := uint64(len(cOut))
	size := uint64(grafHeaderLen) + 8*(n+1) + 4*(n+1)
	size += pad8(size)
	size += cOutLen
	size += pad8(size)
	if g.weighted {
		size += 8 * arcs
	}
	size += 4 // crc
	buf := grafFormat.Begin(make([]byte, 0, size))
	var flags uint64
	if g.directed {
		flags |= grafFlagDir
	}
	if g.weighted {
		flags |= grafFlagWtd
	}
	buf = binary.LittleEndian.AppendUint64(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, n)
	buf = binary.LittleEndian.AppendUint64(buf, arcs)
	buf = binary.LittleEndian.AppendUint64(buf, cOutLen)
	buf = binary.LittleEndian.AppendUint64(buf, g.arcHashSum())
	for _, o := range g.outOff {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, o := range cOutIdx {
		buf = binary.LittleEndian.AppendUint32(buf, o)
	}
	buf = append(buf, make([]byte, pad8(uint64(len(buf))))...)
	buf = append(buf, cOut...)
	buf = append(buf, make([]byte, pad8(uint64(len(buf))))...)
	if g.weighted {
		for _, w := range g.outW {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
		}
	}
	return framing.Seal(buf, 0)
}

// grafSections locates and fully validates every section of a DVGRAF
// image: exact length, checksum, monotonic offset arrays, and a
// complete walk of the varint stream (bounded gaps, in-range
// neighbours, per-vertex byte ranges consumed exactly). After it
// returns nil the adjacency stream is safe for the unchecked ArcIter
// decoder.
type grafSections struct {
	directed, weighted bool
	n                  int
	arcs               uint64
	sum                uint64 // the stored arc-hash sum, with hasSum
	hasSum             bool   // version 2 and later
	outOff             []byte // raw LE section bytes
	cOutIdx            []byte
	cOut               []byte
	weights            []byte // nil when unweighted
}

func parseGraf(b []byte) (*grafSections, error) {
	r := grafFormat.Open(b)
	flags, n, arcs, cOutLen := r.U64(), r.U64(), r.U64(), r.U64()
	hasSum := r.Version() >= 2
	var sum uint64
	if hasSum {
		sum = r.U64()
	}
	switch {
	case flags&^uint64(grafFlagDir|grafFlagWtd) != 0:
		r.Fail("unknown flags %#x", flags)
	case n > math.MaxUint32:
		r.Fail("vertex count %d exceeds the 32-bit ID space", n)
	case arcs > cOutLen:
		// Every arc takes at least one stream byte.
		r.Fail("%d arcs cannot fit in a %d-byte stream", arcs, cOutLen)
	case cOutLen > uint64(len(b)):
		r.Fail("stream length %d exceeds input", cOutLen)
	}
	s := &grafSections{
		directed: flags&grafFlagDir != 0,
		weighted: flags&grafFlagWtd != 0,
		n:        int(n),
		arcs:     arcs,
		sum:      sum,
		hasSum:   hasSum,
	}
	s.outOff = r.Take(8 * (s.n + 1))
	s.cOutIdx = r.Take(4 * (s.n + 1))
	r.Pad8()
	s.cOut = r.Take(int(cOutLen))
	r.Pad8()
	if s.weighted {
		s.weights = r.Take(8 * int(arcs))
	}
	rest, err := r.Close()
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the checksum", ErrGraphCorrupt, len(rest))
	}
	bad := func(format string, a ...any) error {
		return fmt.Errorf("%w: %s", ErrGraphCorrupt, fmt.Sprintf(format, a...))
	}

	// Structural validation: the CRC guards against accidental damage,
	// this guards against adversarial images with a valid checksum.
	prevOff := uint64(0)
	for u := uint64(0); u <= n; u++ {
		o := binary.LittleEndian.Uint64(s.outOff[8*u:])
		if o < prevOff || (u == 0 && o != 0) {
			return nil, bad("arc offsets not monotone at vertex %d", u)
		}
		prevOff = o
	}
	if prevOff != arcs {
		return nil, bad("arc offsets end at %d, header says %d arcs", prevOff, arcs)
	}
	prevIdx := uint64(0)
	for u := uint64(0); u <= n; u++ {
		o := uint64(binary.LittleEndian.Uint32(s.cOutIdx[4*u:]))
		if o < prevIdx || (u == 0 && o != 0) {
			return nil, bad("stream offsets not monotone at vertex %d", u)
		}
		prevIdx = o
	}
	if prevIdx != cOutLen {
		return nil, bad("stream offsets end at %d, header says %d bytes", prevIdx, cOutLen)
	}
	p := uint64(0)
	for u := uint64(0); u < n; u++ {
		deg := binary.LittleEndian.Uint64(s.outOff[8*(u+1):]) - binary.LittleEndian.Uint64(s.outOff[8*u:])
		end := uint64(binary.LittleEndian.Uint32(s.cOutIdx[4*(u+1):]))
		prev := uint64(0)
		for k := uint64(0); k < deg; k++ {
			var x uint64
			var shift uint
			for {
				if p >= end {
					return nil, bad("vertex %d: adjacency stream truncated", u)
				}
				c := s.cOut[p]
				p++
				x |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
				shift += 7
				if shift > 32 {
					return nil, bad("vertex %d: oversized varint", u)
				}
			}
			prev += x
			if prev >= n {
				return nil, bad("vertex %d: neighbour %d out of range", u, prev)
			}
		}
		if p != end {
			return nil, bad("vertex %d: %d trailing stream bytes", u, end-p)
		}
	}
	return s, nil
}

// DecodeGraph decodes a DVGRAF image into a graph with the requested
// representation (LoadFlat or LoadCompact; LoadMmap needs a file — use
// ReadGraphFile). The input is fully validated and never aliased, and
// decoding never panics on malformed input: it returns an error
// wrapping ErrGraphCorrupt or ErrGraphVersion.
func DecodeGraph(b []byte, mode LoadMode) (*Graph, error) {
	if mode == LoadMmap {
		return nil, fmt.Errorf("graph: DecodeGraph: LoadMmap requires a file; use ReadGraphFile")
	}
	s, err := parseGraf(b)
	if err != nil {
		return nil, err
	}
	return s.build(mode, false)
}

// build assembles the Graph. With alias=true (mmap, or a private file
// buffer) the compact sections reference the parsed bytes directly when
// the host allows it; otherwise they are copied out.
func (s *grafSections) build(mode LoadMode, alias bool) (*Graph, error) {
	g := &Graph{n: s.n, directed: s.directed, weighted: s.weighted}
	canAlias := alias && hostLittleEndian &&
		uintptr(unsafe.Pointer(unsafe.SliceData(s.outOff)))%8 == 0 &&
		(s.weights == nil || uintptr(unsafe.Pointer(unsafe.SliceData(s.weights)))%8 == 0)
	if canAlias {
		g.outOff = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s.outOff))), s.n+1)
		if s.weights != nil {
			g.outW = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s.weights))), s.arcs)
		}
	} else {
		g.outOff = make([]int64, s.n+1)
		for i := range g.outOff {
			g.outOff[i] = int64(binary.LittleEndian.Uint64(s.outOff[8*i:]))
		}
		if s.weights != nil {
			g.outW = make([]float64, s.arcs)
			for i := range g.outW {
				g.outW[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.weights[8*i:]))
			}
		}
	}
	switch mode {
	case LoadFlat:
		g.outAdj = decodeAdj(g.outOff, s.cOut)
	case LoadCompact, LoadMmap:
		if canAlias {
			// cOutIdx has 4-byte alignment requirements only.
			g.cOutIdx = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s.cOutIdx))), s.n+1)
			g.cOut = s.cOut
		} else {
			g.cOutIdx = make([]uint32, s.n+1)
			for i := range g.cOutIdx {
				g.cOutIdx[i] = binary.LittleEndian.Uint32(s.cOutIdx[4*i:])
			}
			g.cOut = append([]byte(nil), s.cOut...)
		}
	}
	if !g.directed {
		g.BuildReverse() // alias in-direction, both representations
	}
	if s.hasSum {
		g.setFingerprint(s.sum)
	}
	return g, nil
}

// WriteGraphFile encodes g into path in the DVGRAF format.
func WriteGraphFile(path string, g *Graph) error {
	return os.WriteFile(path, EncodeGraph(g), 0o644)
}

// ReadGraphFile loads a DVGRAF file with the requested representation.
// LoadMmap maps the file read-only — the returned graph aliases the
// mapping, stays valid until Close, and must not be used afterwards;
// validation reads every page once, then the pages are dropped back to
// the file so the steady-state footprint is only what iteration
// touches. When mapping is unavailable LoadMmap silently degrades to a
// heap-backed compact load.
func ReadGraphFile(path string, mode LoadMode) (*Graph, error) {
	if mode == LoadMmap {
		if g, handled, err := readGraphMmap(path); handled {
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return g, nil
		}
		mode = LoadCompact
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseGraf(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// b is private to this call, so the compact form may alias it
	// instead of copying the sections out.
	return s.build(mode, mode == LoadCompact)
}

// IsGraphFile sniffs whether path starts with the DVGRAF magic.
func IsGraphFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [6]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return hdr == grafFormat.Magic
}
