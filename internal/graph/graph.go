// Package graph provides the compressed-sparse-row (CSR) graph
// representation used by the Pregel engine and the ΔV runtime, together
// with deterministic synthetic generators and simple edge-list I/O.
//
// Graphs are immutable after construction: build them with a Builder or a
// generator, then share them freely between workers. Both directed and
// undirected graphs are supported; undirected graphs store each edge in
// both directions so that the out-adjacency of a vertex is exactly its
// neighbour set.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// IDs 0..n-1.
type VertexID = uint32

// Graph is an immutable CSR graph.
type Graph struct {
	n        int
	directed bool
	weighted bool

	// Out-adjacency in CSR form.
	outOff []int64
	outAdj []VertexID
	outW   []float64 // nil when unweighted

	// In-adjacency (reverse CSR). For undirected graphs these alias the
	// out-adjacency slices. For directed graphs they are built lazily by
	// BuildReverse (or eagerly by the Builder when requested).
	inOff []int64
	inAdj []VertexID
	inW   []float64

	// Compact adjacency (see compact.go). When cOutIdx is non-nil the
	// graph is compact: outAdj/inAdj are nil and neighbour lists decode
	// from the gap-varint streams cOut/cIn, indexed per vertex by the
	// byte offsets cOutIdx/cInIdx. The arc-offset and weight arrays
	// above are present in both representations.
	cOut    []byte
	cOutIdx []uint32
	cIn     []byte
	cInIdx  []uint32

	// lazyIn marks a compact directed graph whose BuildReverse has been
	// requested but whose reverse CSR is materialized only on first
	// in-side access; inOnce guards the materialization.
	lazyIn bool
	inOnce sync.Once

	// unmap releases the file mapping backing a graph loaded with
	// LoadMmap (nil for heap-backed graphs). It is invoked at most once,
	// through the refs lifecycle below — never directly.
	unmap func() error

	// refs guards the mapping's lifetime against concurrent readers. The
	// low bits count outstanding Retain pins; closedBit marks that Close
	// was called (further Retains fail); unmappedBit marks that the
	// mapping has actually been released. Close unmaps immediately only
	// when no pins are outstanding, otherwise the last Release unmaps —
	// so a reader holding an ArcIter over mapped memory can never have
	// the pages pulled out from under it by a concurrent Close.
	refs atomic.Int64

	// fp caches Fingerprint (0 = not yet computed; the hash is folded so
	// it can never legitimately be 0) and fpSum the arc-hash sum it was
	// finished from, which ApplyDelta adjusts instead of recomputing.
	fp    atomic.Uint64
	fpSum atomic.Uint64

	// finite caches FiniteWeights: 0 = not yet scanned, 1 = every weight
	// finite, 2 = some weight is ±Inf or NaN.
	finite atomic.Uint32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the edge count: the number of stored arcs for a
// directed graph, half of them for an undirected graph. An undirected
// self-loop is stored as a single arc (see Builder), so it contributes
// only half an edge here and the result rounds down; use NumArcs for an
// exact count of stored adjacency entries.
func (g *Graph) NumEdges() int {
	if g.directed {
		return g.NumArcs()
	}
	return g.NumArcs() / 2
}

// NumArcs returns the number of stored adjacency entries in the
// out-direction, independent of representation. Every directed edge is
// one arc; every undirected non-loop edge is two (one per direction)
// and every undirected self-loop is one.
func (g *Graph) NumArcs() int {
	if len(g.outOff) == 0 {
		return 0
	}
	return int(g.outOff[g.n])
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether the graph carries per-edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// FiniteWeights reports whether every arc weight is finite (an unweighted
// graph's arcs weigh 1). The first call scans the weights; later calls read
// the cached answer.
func (g *Graph) FiniteWeights() bool {
	switch g.finite.Load() {
	case 1:
		return true
	case 2:
		return false
	}
	finite := uint32(1)
	for _, w := range g.outW {
		if w-w != 0 { // ±Inf − ±Inf and NaN − NaN are NaN
			finite = 2
			break
		}
	}
	g.finite.Store(finite)
	return finite == 1
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u VertexID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of u. For directed graphs the reverse
// adjacency must have been built (see BuildReverse); for undirected graphs
// it equals OutDegree.
func (g *Graph) InDegree(u VertexID) int {
	if !g.ensureIn() {
		panic("graph: InDegree requires reverse adjacency; call BuildReverse")
	}
	return int(g.inOff[u+1] - g.inOff[u])
}

// OutList returns u's out-adjacency list without allocating once *scratch
// has held it: on a flat graph the shared adjacency slice itself (not to be
// modified), on a compact graph the list decoded in one pass into *scratch,
// which it grows as needed. The result is valid until the next call with
// the same scratch.
func (g *Graph) OutList(u VertexID, scratch *[]VertexID) []VertexID {
	lo, hi := g.outOff[u], g.outOff[u+1]
	if g.cOutIdx == nil {
		return g.outAdj[lo:hi:hi]
	}
	deg := int(hi - lo)
	if cap(*scratch) < deg {
		*scratch = make([]VertexID, deg)
	}
	return decodeList((*scratch)[:deg], g.cOut[g.cOutIdx[u]:g.cOutIdx[u+1]])
}

// HasReverse reports whether the in-adjacency is available (including a
// compact graph's deferred reverse, which materializes on first use).
func (g *Graph) HasReverse() bool { return g.inOff != nil || g.lazyIn }

// BuildReverse constructs the in-adjacency (reverse CSR) for a directed
// graph. It is idempotent and a no-op for undirected graphs. On a
// compact directed graph it only marks the reverse as requested; the
// in-CSR is materialized (in compact form) on first in-side access, so
// programs that never read in-adjacency never pay for it. It is not safe
// to call concurrently with itself, but once built the graph is again
// immutable and safe for concurrent reads.
func (g *Graph) BuildReverse() {
	if g.inOff != nil || g.lazyIn {
		return
	}
	if !g.directed {
		g.inOff, g.inW = g.outOff, g.outW
		if g.cOutIdx != nil {
			g.cIn, g.cInIdx = g.cOut, g.cOutIdx
		} else {
			g.inAdj = g.outAdj
		}
		return
	}
	if g.cOutIdx != nil {
		g.lazyIn = true
		return
	}
	inOff := make([]int64, g.n+1)
	for _, v := range g.outAdj {
		inOff[v+1]++
	}
	for i := 0; i < g.n; i++ {
		inOff[i+1] += inOff[i]
	}
	inAdj := make([]VertexID, len(g.outAdj))
	var inW []float64
	if g.outW != nil {
		inW = make([]float64, len(g.outW))
	}
	cursor := make([]int64, g.n)
	copy(cursor, inOff[:g.n])
	for u := 0; u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			v := g.outAdj[i]
			p := cursor[v]
			cursor[v]++
			inAdj[p] = VertexID(u)
			if inW != nil {
				inW[p] = g.outW[i]
			}
		}
	}
	g.inOff, g.inAdj, g.inW = inOff, inAdj, inW
}

// Fingerprint returns a deterministic 64-bit digest of the graph's
// structure: vertex count, directedness, and the multiset of stored arcs
// with their weights. It is
//
//	finish(n, directed, Σ_arcs arcHash(u, v, k, bits(w)) mod 2⁶⁴)
//
// where k is the arc's ordinal among the parallel arcs u→v, so two graphs
// built from the same edges in the same order hash identically across
// processes and runs, and two unequal parallel arcs in the other order do
// not. The digest is representation-independent (a compact graph hashes
// exactly like its flat equivalent, an unweighted arc like weight 1), so
// snapshots warm-start across representations. A sum rather than a
// sequential hash because a sum composes under mutation: ApplyDelta
// derives the mutated graph's digest from this one by subtracting the
// touched vertices' old arcs and adding their new ones, and never
// re-hashes the untouched ones. The digest is computed once and
// cached; it is never 0.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	return g.setFingerprint(g.arcHashSum())
}

// ErrFingerprintMismatch is wrapped by VerifyFingerprint when a graph's
// arcs do not hash to the digest it carries.
var ErrFingerprintMismatch = errors.New("graph: fingerprint does not match the stored arcs")

// VerifyFingerprint re-hashes every stored arc and reports an error
// wrapping ErrFingerprintMismatch when the result is not the cached digest.
// A digest ApplyDelta derived vouches for the touched vertices' blocks only
// — the untouched spans it copied never went through the hash — and one
// loaded from a DVGRAF file was never compared with the arcs it came with,
// so this is the check that the arrays and the digest still describe the
// same graph. It costs what a first Fingerprint call costs; on a graph with
// no cached digest it is that call.
func (g *Graph) VerifyFingerprint() error {
	fp := g.fp.Load()
	if fp == 0 {
		g.Fingerprint()
		return nil
	}
	if got := finishFingerprint(g.n, g.directed, g.arcHashSum()); got != fp {
		return fmt.Errorf("%w: stored arcs hash to %016x, the graph carries %016x", ErrFingerprintMismatch, got, fp)
	}
	return nil
}

// setFingerprint caches sum as the graph's arc-hash sum and returns the
// digest it finishes to. The sum is stored first: a non-zero fp implies a
// valid fpSum.
func (g *Graph) setFingerprint(sum uint64) uint64 {
	fp := finishFingerprint(g.n, g.directed, sum)
	g.fpSum.Store(sum)
	g.fp.Store(fp)
	return fp
}

// inheritFingerprint copies from's cached digest, if it has one, onto g —
// for graphs that store the same arcs in another representation.
func (g *Graph) inheritFingerprint(from *Graph) {
	if fp := from.fp.Load(); fp != 0 {
		g.fpSum.Store(from.fpSum.Load())
		g.fp.Store(fp)
	}
}

// arcHashSum is the from-scratch pass behind Fingerprint: the sum of
// arcHash over every stored arc.
func (g *Graph) arcHashSum() uint64 {
	var sum uint64
	for u := 0; u < g.n; u++ {
		var h blockHasher
		it := g.OutArcs(VertexID(u))
		for it.Next() {
			h.add(VertexID(u), it.To(), it.Weight())
		}
		sum += h.sum
	}
	return sum
}

// blockHasher sums arcHash over one vertex's adjacency list fed to it in
// order, numbering parallel arcs (equal consecutive targets) as it goes.
type blockHasher struct {
	sum  uint64
	prev VertexID
	k    uint64 // ordinal of the last arc among its parallels
	any  bool
}

func (h *blockHasher) add(u, v VertexID, w float64) {
	if h.any && v == h.prev {
		h.k++
	} else {
		h.prev, h.k, h.any = v, 0, true
	}
	h.sum += arcHash(u, v, h.k, math.Float64bits(w))
}

// arcHash mixes one stored arc into 64 bits. Every term of the sum goes
// through the outer mix, so that endpoints, ordinal and weight bits decide
// it jointly: a sum of terms linear in any one of them could not tell two
// arcs from the same two arcs with that part exchanged.
func arcHash(u, v VertexID, k, wbits uint64) uint64 {
	return mix64(mix64(uint64(u)<<32|uint64(v)) ^ wbits ^ k*0x9e3779b97f4a7c15)
}

// finishFingerprint folds the vertex count and directedness into an
// arc-hash sum. 0 is reserved for "not computed".
func finishFingerprint(n int, directed bool, sum uint64) uint64 {
	shape := uint64(n) << 1
	if directed {
		shape |= 1
	}
	if fp := mix64(sum ^ mix64(shape)); fp != 0 {
		return fp
	}
	return 1
}

// mix64 is the splitmix64 finalizer, a bijection on uint64 with full
// avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Graph lifetime state bits held in Graph.refs alongside the pin count.
const (
	graphClosedBit   = int64(1) << 62
	graphUnmappedBit = int64(1) << 61
)

// Retain pins the graph's backing storage so it survives a concurrent
// Close: while the pin is held, a graph loaded with LoadMmap keeps its
// mapping even if Close is called, and the unmap happens at the final
// Release instead. Retain reports false once Close has been called — the
// caller must not touch the graph and should fall back to a newer
// version. Heap-backed graphs accept pins too (making caller code
// representation-agnostic); the pins are then bookkeeping only.
//
// Every successful Retain must be paired with exactly one Release.
func (g *Graph) Retain() bool {
	for {
		r := g.refs.Load()
		if r&graphClosedBit != 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release undoes one Retain. The Release that drops the last pin after a
// Close performs the deferred unmap.
func (g *Graph) Release() {
	if r := g.refs.Add(-1); r == graphClosedBit {
		// Close ran while pins were outstanding and this was the last
		// one; exactly one goroutine observes this state.
		g.doUnmap()
	}
}

// Close retires the graph: subsequent Retains fail, and the file mapping
// backing a graph loaded with LoadMmap is released — immediately when no
// Retain pins are outstanding, otherwise by the last Release. It returns
// nil for heap-backed graphs and on repeated calls. A mapped graph must
// not be used after Close except through a Retain pin taken before it.
func (g *Graph) Close() error {
	for {
		r := g.refs.Load()
		if r&graphClosedBit != 0 {
			return nil
		}
		if g.refs.CompareAndSwap(r, r|graphClosedBit) {
			if r == 0 {
				return g.doUnmap()
			}
			return nil // last Release unmaps
		}
	}
}

// doUnmap releases the mapping. The refs protocol (Close with zero pins,
// or the final Release after Close) guarantees exactly one caller.
func (g *Graph) doUnmap() error {
	g.refs.Add(graphUnmappedBit)
	if g.unmap == nil {
		return nil
	}
	return g.unmap()
}

// decodeList decodes one gap-varint neighbour stream into out, whose
// length is the list's degree, and returns out.
func decodeList(out []VertexID, b []byte) []VertexID {
	p := 0
	prev := uint32(0)
	for k := range out {
		var x uint32
		var s uint
		for {
			c := b[p]
			p++
			if c < 0x80 {
				x |= uint32(c) << s
				break
			}
			x |= uint32(c&0x7f) << s
			s += 7
		}
		prev += x
		out[k] = prev
	}
	return out
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s |V|=%d |E|=%d weighted=%v}", kind, g.n, g.NumEdges(), g.weighted)
}

// Builder accumulates edges and produces an immutable Graph.
//
// For an undirected builder, AddEdge(u,v) records the single undirected
// edge {u,v}; the builder mirrors it internally. Self-loops are kept as a
// single arc in undirected graphs. Parallel edges are kept, in the order
// they were added — the order ApplyDelta gives them too, and the order
// Fingerprint counts.
type Builder struct {
	directed bool
	weighted bool
	n        int
	srcs     []VertexID
	dsts     []VertexID
	ws       []float64
	dedup    bool
	compact  bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{directed: directed, n: n}
}

// SetDedup makes Finalize remove duplicate arcs (keeping the first weight).
func (b *Builder) SetDedup(on bool) { b.dedup = on }

// SetCompact makes Finalize return the graph in the compact gap-varint
// representation (see Compact). The flat CSR still exists transiently
// during Finalize.
func (b *Builder) SetCompact(on bool) { b.compact = on }

// AddEdge records an unweighted edge from u to v.
func (b *Builder) AddEdge(u, v VertexID) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records a weighted edge from u to v. Adding any edge with
// weight != 1 marks the graph weighted.
func (b *Builder) AddWeightedEdge(u, v VertexID, w float64) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", u, v, b.n))
	}
	if w != 1 {
		b.weighted = true
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	b.ws = append(b.ws, w)
}

// Finalize builds the immutable CSR graph. The Builder must not be used
// afterwards. When SetCompact is on, Finalize panics if the encoded
// adjacency overflows the 4 GiB stream limit; builders of graphs that
// can plausibly reach that scale should call Compact instead and handle
// the typed error.
func (b *Builder) Finalize() *Graph {
	g := b.finalizeFlat()
	if b.compact {
		return MustCompact(g)
	}
	return g
}

// Compact builds the graph directly in the compact gap-varint
// representation, returning a *CompactOverflowError (instead of
// Finalize's panic) if either direction's encoded stream would exceed
// the 4 GiB uint32 offset limit. The Builder must not be used
// afterwards.
func (b *Builder) Compact() (*Graph, error) {
	return Compact(b.finalizeFlat())
}

// finalizeFlat builds the flat CSR from the buffered edges.
func (b *Builder) finalizeFlat() *Graph {
	type arc struct {
		u, v VertexID
		w    float64
		i    int // insertion rank: parallel arcs keep the order they were added in
	}
	arcs := make([]arc, 0, len(b.srcs)*2)
	for i := range b.srcs {
		arcs = append(arcs, arc{b.srcs[i], b.dsts[i], b.ws[i], i})
		if !b.directed && b.srcs[i] != b.dsts[i] {
			arcs = append(arcs, arc{b.dsts[i], b.srcs[i], b.ws[i], i})
		}
	}
	slices.SortFunc(arcs, func(x, y arc) int {
		if c := cmp.Compare(x.u, y.u); c != 0 {
			return c
		}
		if c := cmp.Compare(x.v, y.v); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	if b.dedup {
		out := arcs[:0]
		for i, a := range arcs {
			if i > 0 && a.u == out[len(out)-1].u && a.v == out[len(out)-1].v {
				continue
			}
			out = append(out, a)
		}
		arcs = out
	}
	g := &Graph{n: b.n, directed: b.directed, weighted: b.weighted}
	g.outOff = make([]int64, b.n+1)
	g.outAdj = make([]VertexID, len(arcs))
	if b.weighted {
		g.outW = make([]float64, len(arcs))
	}
	for i, a := range arcs {
		g.outOff[a.u+1]++
		g.outAdj[i] = a.v
		if g.outW != nil {
			g.outW[i] = a.w
		}
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	if !b.directed {
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
	}
	return g
}
