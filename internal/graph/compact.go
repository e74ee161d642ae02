package graph

import (
	"fmt"
	"math"
	"math/bits"
)

// Compact adjacency representation.
//
// A compact graph stores each vertex's sorted neighbour list as a
// delta-gap varint byte stream instead of a []VertexID slice: the first
// neighbour is encoded as itself, every later neighbour as the
// (non-negative) gap from its predecessor, each value LEB128-style with
// 7 payload bits per byte. On power-law graphs the common case is a one-
// or two-byte arc, cutting adjacency storage from 4 bytes/arc to ~2.
//
// The compact form keeps the arc-offset array (outOff/inOff) and the
// weight arrays of the flat CSR, and adds a per-vertex byte-offset array
// (cOutIdx/cInIdx) into the stream, so degrees, weight lookup, and
// Fingerprint are representation-independent. Adjacency is consumed
// through the ArcIter cursor or the ForEach helpers; OutNeighbors /
// InNeighbors still work but return freshly allocated copies.
//
// Compact directed graphs additionally defer BuildReverse: the reverse
// adjacency is materialized on first in-side access rather than when
// BuildReverse is called, so programs that declare #in but only ever
// push along out-edges never pay for an in-CSR at all.

// maxCompactStream bounds one direction's encoded adjacency: byte
// offsets are uint32, so a stream must fit in 4 GiB (roughly two billion
// arcs per direction at typical gap sizes). It is a variable only so the
// overflow tests can lower it without materializing billions of arcs; no
// non-test code reassigns it.
var maxCompactStream uint64 = math.MaxUint32

// CompactOverflowError is the typed error returned by Compact and
// Builder.Compact when one direction's gap-varint stream would exceed
// the uint32 byte-offset limit. Offsets past 4 GiB cannot be represented
// in the cOutIdx/cInIdx arrays, so instead of writing truncated offsets
// the encoder refuses; callers keep the flat CSR (or shard the graph).
type CompactOverflowError struct {
	Direction string // "out" or "in"
	Vertex    int    // first vertex whose list pushed the stream past the limit
	Bytes     uint64 // encoded bytes accumulated through that vertex
}

func (e *CompactOverflowError) Error() string {
	return fmt.Sprintf("graph: %s-adjacency gap-varint stream is %d bytes at vertex %d, exceeding the 4 GiB uint32 offset limit; compact representation unavailable",
		e.Direction, e.Bytes, e.Vertex)
}

// ArcIter is a copy-free cursor over one vertex's adjacency, valid for
// both flat and compact graphs:
//
//	it := g.OutArcs(u)
//	for it.Next() {
//		use(it.To(), it.Weight())
//	}
//
// ArcIter is a plain value: obtaining and advancing one never
// allocates, which is what lets the engine's hot paths stay
// allocation-free on either representation. The zero ArcIter is empty.
type ArcIter struct {
	adj  []VertexID // flat representation (non-nil even when empty)
	b    []byte     // compact: this vertex's encoded stream
	ws   []float64  // this vertex's weights, or nil when unweighted
	i    int        // arc ordinal within the vertex
	p    int        // byte position in b (compact)
	rem  int        // arcs remaining (compact)
	prev uint32     // previous decoded neighbour (gap base)
	v    VertexID
	w    float64
}

// Next advances to the next arc, reporting whether one exists.
func (it *ArcIter) Next() bool {
	if it.adj != nil {
		if it.i == len(it.adj) {
			return false
		}
		it.v = it.adj[it.i]
	} else {
		if it.rem == 0 {
			return false
		}
		it.rem--
		var x uint32
		var s uint
		p := it.p
		for {
			c := it.b[p]
			p++
			if c < 0x80 {
				x |= uint32(c) << s
				break
			}
			x |= uint32(c&0x7f) << s
			s += 7
		}
		it.p = p
		it.v = it.prev + x
		it.prev = it.v
	}
	if it.ws != nil {
		it.w = it.ws[it.i]
	} else {
		it.w = 1
	}
	it.i++
	return true
}

// To returns the far endpoint of the current arc.
func (it *ArcIter) To() VertexID { return it.v }

// Weight returns the weight of the current arc (1 when unweighted).
func (it *ArcIter) Weight() float64 { return it.w }

// OutArcs returns a cursor over u's out-edges.
func (g *Graph) OutArcs(u VertexID) ArcIter {
	lo, hi := g.outOff[u], g.outOff[u+1]
	var ws []float64
	if g.outW != nil {
		ws = g.outW[lo:hi]
	}
	if g.cOutIdx == nil {
		return ArcIter{adj: g.outAdj[lo:hi:hi], ws: ws}
	}
	return ArcIter{b: g.cOut[g.cOutIdx[u]:g.cOutIdx[u+1]], rem: int(hi - lo), ws: ws}
}

// OutArcsInto aims it at u's out-edges: OutArcs into a cursor the caller
// keeps, which spares a hot loop the copies of a returned 112-byte ArcIter.
// OutArcs keeps a body of its own rather than calling this one: that is
// what keeps it within the inliner's budget.
func (g *Graph) OutArcsInto(it *ArcIter, u VertexID) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	*it = ArcIter{}
	if g.outW != nil {
		it.ws = g.outW[lo:hi]
	}
	if g.cOutIdx == nil {
		it.adj = g.outAdj[lo:hi:hi]
		return
	}
	it.b, it.rem = g.cOut[g.cOutIdx[u]:g.cOutIdx[u+1]], int(hi-lo)
}

// InArcs returns a cursor over u's in-edges. The reverse adjacency must
// be available (BuildReverse for directed graphs); on a compact graph
// with deferred reverse adjacency, the first call materializes it.
func (g *Graph) InArcs(u VertexID) ArcIter {
	var it ArcIter
	g.InArcsInto(&it, u)
	return it
}

// InArcsInto is OutArcsInto for u's in-edges, under InArcs' conditions.
func (g *Graph) InArcsInto(it *ArcIter, u VertexID) {
	if !g.ensureIn() {
		panic("graph: InArcs requires reverse adjacency; call BuildReverse")
	}
	lo, hi := g.inOff[u], g.inOff[u+1]
	*it = ArcIter{}
	if g.inW != nil {
		it.ws = g.inW[lo:hi]
	}
	if g.cInIdx == nil {
		it.adj = g.inAdj[lo:hi:hi]
		return
	}
	it.b, it.rem = g.cIn[g.cInIdx[u]:g.cInIdx[u+1]], int(hi-lo)
}

// ForEachOutNeighbor calls fn for every out-neighbour of u, in
// adjacency order, without allocating.
func (g *Graph) ForEachOutNeighbor(u VertexID, fn func(v VertexID)) {
	it := g.OutArcs(u)
	for it.Next() {
		fn(it.To())
	}
}

// ForEachOutEdge calls fn for every out-edge of u with its weight, in
// adjacency order, without allocating.
func (g *Graph) ForEachOutEdge(u VertexID, fn func(v VertexID, w float64)) {
	it := g.OutArcs(u)
	for it.Next() {
		fn(it.To(), it.Weight())
	}
}

// ForEachInNeighbor calls fn for every in-neighbour of u, in adjacency
// order, without allocating.
func (g *Graph) ForEachInNeighbor(u VertexID, fn func(v VertexID)) {
	it := g.InArcs(u)
	for it.Next() {
		fn(it.To())
	}
}

// ForEachInEdge calls fn for every in-edge of u with its weight, in
// adjacency order, without allocating.
func (g *Graph) ForEachInEdge(u VertexID, fn func(v VertexID, w float64)) {
	it := g.InArcs(u)
	for it.Next() {
		fn(it.To(), it.Weight())
	}
}

// AppendOutNeighbors appends u's out-neighbours to buf and returns the
// extended slice — the allocation-controlled form of OutNeighbors for
// callers that need an indexable scratch list on compact graphs.
func (g *Graph) AppendOutNeighbors(u VertexID, buf []VertexID) []VertexID {
	if g.cOutIdx == nil {
		return append(buf, g.OutNeighbors(u)...)
	}
	it := g.OutArcs(u)
	for it.Next() {
		buf = append(buf, it.To())
	}
	return buf
}

// IsCompact reports whether the graph stores adjacency in the compact
// gap-varint form.
func (g *Graph) IsCompact() bool { return g.cOutIdx != nil }

// Mapped reports whether the graph's storage aliases a live file mapping
// (see ReadGraphFile with LoadMmap). It turns false once the mapping has
// actually been released, which a Close can defer past outstanding
// Retain pins.
func (g *Graph) Mapped() bool {
	return g.unmap != nil && g.refs.Load()&graphUnmappedBit == 0
}

// Repr names the adjacency representation: "flat", "compact", or
// "compact+mmap" for a file-mapped compact graph.
func (g *Graph) Repr() string {
	switch {
	case g.unmap != nil:
		return "compact+mmap"
	case g.cOutIdx != nil:
		return "compact"
	default:
		return "flat"
	}
}

// ArcBytes returns the bytes currently resident for adjacency storage:
// offset arrays, neighbour storage (flat slices or encoded streams plus
// their byte-offset arrays), and weights, for every direction that has
// been materialized. Undirected graphs alias the two directions and are
// counted once. File-mapped bytes are counted too — they are
// addressable like heap bytes; the peak-RSS bench axis is what shows
// the paging difference. Go slice headers are not included.
func (g *Graph) ArcBytes() int64 {
	b := int64(len(g.outOff))*8 +
		int64(len(g.outAdj))*4 +
		int64(len(g.cOut)) +
		int64(len(g.cOutIdx))*4 +
		int64(len(g.outW))*8
	if g.directed && g.inOff != nil {
		b += int64(len(g.inOff))*8 +
			int64(len(g.inAdj))*4 +
			int64(len(g.cIn)) +
			int64(len(g.cInIdx))*4 +
			int64(len(g.inW))*8
	}
	return b
}

// Compact returns a graph equivalent to g whose adjacency is stored in
// the compact gap-varint form. The offset and weight arrays are shared
// with g (both are immutable); the savings are realized once the caller
// drops its reference to the flat graph. If g is already compact it is
// returned unchanged.
//
// If g is directed and has no reverse adjacency yet, the compact graph
// defers any later BuildReverse: the in-CSR is materialized only on
// first in-side access. If one direction's encoded stream would exceed
// 4 GiB (the uint32 byte-offset limit), Compact returns a
// *CompactOverflowError and no graph.
func Compact(g *Graph) (*Graph, error) {
	if g.cOutIdx != nil {
		return g, nil
	}
	ng := &Graph{n: g.n, directed: g.directed, weighted: g.weighted}
	ng.outOff = g.outOff
	ng.outW = g.outW
	var err error
	ng.cOut, ng.cOutIdx, err = encodeAdj(g.outOff, g.outAdj, "out")
	if err != nil {
		return nil, err
	}
	if g.inOff != nil {
		if !g.directed {
			ng.inOff, ng.inW = ng.outOff, ng.outW
			ng.cIn, ng.cInIdx = ng.cOut, ng.cOutIdx
		} else {
			ng.inOff = g.inOff
			ng.inW = g.inW
			ng.cIn, ng.cInIdx, err = encodeAdj(g.inOff, g.inAdj, "in")
			if err != nil {
				return nil, err
			}
		}
	}
	ng.inheritFingerprint(g)
	return ng, nil
}

// MustCompact is Compact for graphs known to fit the 4 GiB stream limit
// (tests, generators); it panics on *CompactOverflowError.
func MustCompact(g *Graph) *Graph {
	ng, err := Compact(g)
	if err != nil {
		panic(err)
	}
	return ng
}

// Flatten returns a flat-CSR graph equivalent to g, decoding compact
// streams back into plain slices. If g is already flat it is returned
// unchanged. A deferred (not yet materialized) reverse adjacency is not
// carried over; callers that need it call BuildReverse on the result.
func Flatten(g *Graph) *Graph {
	if g.cOutIdx == nil {
		return g
	}
	ng := &Graph{n: g.n, directed: g.directed, weighted: g.weighted}
	ng.outOff = g.outOff
	ng.outW = g.outW
	ng.outAdj = decodeAdj(g.outOff, g.cOut)
	if g.inOff != nil {
		if !g.directed {
			ng.inOff, ng.inAdj, ng.inW = ng.outOff, ng.outAdj, ng.outW
		} else {
			ng.inOff = g.inOff
			ng.inW = g.inW
			ng.inAdj = decodeAdj(g.inOff, g.cIn)
		}
	}
	ng.inheritFingerprint(g)
	return ng
}

// ensureIn makes the in-adjacency available if it can be, materializing
// the deferred reverse CSR of a compact directed graph on first use. It
// reports whether the in-adjacency is available.
func (g *Graph) ensureIn() bool {
	if g.lazyIn {
		g.inOnce.Do(g.materializeIn)
		return true
	}
	return g.inOff != nil
}

// materializeIn builds the compact reverse adjacency of a directed
// compact graph. Runs at most once, under g.inOnce. The reverse CSR is
// scattered into transient flat slices (released before returning) and
// then gap-encoded: scanning sources in increasing order leaves every
// in-list sorted, which is exactly what the encoding needs.
func (g *Graph) materializeIn() {
	inOff := make([]int64, g.n+1)
	for u := 0; u < g.n; u++ {
		it := g.OutArcs(VertexID(u))
		for it.Next() {
			inOff[it.To()+1]++
		}
	}
	for i := 0; i < g.n; i++ {
		inOff[i+1] += inOff[i]
	}
	arcs := inOff[g.n]
	inAdj := make([]VertexID, arcs)
	var inW []float64
	if g.outW != nil {
		inW = make([]float64, arcs)
	}
	cursor := make([]int64, g.n)
	copy(cursor, inOff[:g.n])
	for u := 0; u < g.n; u++ {
		it := g.OutArcs(VertexID(u))
		for it.Next() {
			v := it.To()
			p := cursor[v]
			cursor[v]++
			inAdj[p] = VertexID(u)
			if inW != nil {
				inW[p] = it.Weight()
			}
		}
	}
	// The lazy path runs under inOnce and has no error channel; a reverse
	// stream past 4 GiB is unrepresentable, so the typed error becomes a
	// panic here. Compact validated the out-direction eagerly; graphs big
	// enough to trip this should stay flat or load via DVGRAF/mmap.
	cIn, cInIdx, err := encodeAdj(inOff, inAdj, "in")
	if err != nil {
		panic(err)
	}
	g.cIn, g.cInIdx = cIn, cInIdx
	g.inW = inW
	g.inOff = inOff
}

// uvarintLen returns the encoded length of x in bytes (1..5).
func uvarintLen(x uint32) int {
	return (bits.Len32(x|1) + 6) / 7
}

// encodeAdj gap-encodes a flat adjacency into a byte stream plus a
// per-vertex byte-offset array. Neighbour lists must be sorted
// ascending within each vertex (the Builder invariant). A stream that
// would not fit the uint32 offsets yields a *CompactOverflowError
// before any offset is written truncated.
func encodeAdj(off []int64, adj []VertexID, dir string) ([]byte, []uint32, error) {
	n := len(off) - 1
	idx := make([]uint32, n+1)
	var total uint64
	for u := 0; u < n; u++ {
		prev := uint32(0)
		for i := off[u]; i < off[u+1]; i++ {
			v := adj[i]
			if v < prev {
				panic(fmt.Sprintf("graph: adjacency of vertex %d not sorted; cannot compact", u))
			}
			total += uint64(uvarintLen(v - prev))
			prev = v
		}
		if total > maxCompactStream {
			return nil, nil, &CompactOverflowError{Direction: dir, Vertex: u, Bytes: total}
		}
		idx[u+1] = uint32(total)
	}
	buf := make([]byte, total)
	p := 0
	for u := 0; u < n; u++ {
		prev := uint32(0)
		for i := off[u]; i < off[u+1]; i++ {
			v := adj[i]
			x := v - prev
			prev = v
			for x >= 0x80 {
				buf[p] = byte(x) | 0x80
				p++
				x >>= 7
			}
			buf[p] = byte(x)
			p++
		}
	}
	return buf, idx, nil
}

// decodeAdj expands a gap-encoded stream back into a flat adjacency
// slice. The stream must be well-formed (encoder output or a
// DVGRAF-validated stream).
func decodeAdj(off []int64, stream []byte) []VertexID {
	n := len(off) - 1
	adj := make([]VertexID, off[n])
	p := 0
	k := 0
	for u := 0; u < n; u++ {
		prev := uint32(0)
		for i := off[u]; i < off[u+1]; i++ {
			var x uint32
			var s uint
			for {
				c := stream[p]
				p++
				if c < 0x80 {
					x |= uint32(c) << s
					break
				}
				x |= uint32(c&0x7f) << s
				s += 7
			}
			prev += x
			adj[k] = prev
			k++
		}
	}
	return adj
}
