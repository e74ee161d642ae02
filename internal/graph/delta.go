package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements streaming graph mutations: a Delta is an ordered
// log of edge/vertex mutations, and ApplyDelta replays it against an
// immutable CSR graph to produce a fresh CSR plus an AppliedDelta — the
// directed-arc level diff the ΔV runtime needs to retract stale
// contributions and inject new ones without a full rerun. ApplyDeltas
// replays a chain of logs the same way and splices once, at the end.
//
// Deltas are graph-agnostic: mirroring for undirected graphs happens at
// apply time, exactly as Builder mirrors AddEdge. The mutated CSR keeps
// the Builder invariants (arcs sorted by (u,v), undirected arcs stored in
// both directions, self-loops single) so code that binary-searches
// adjacency or fingerprints the structure sees no difference between a
// built graph and a mutated one — array for array.
//
// The cost is proportional to the delta, not the graph: the log is
// interpreted against per-pair state, only the adjacency blocks of the
// touched source vertices are merged and re-encoded, every span of
// untouched vertices between them is copied wholesale (its offsets
// shifted by the arcs and bytes the delta has added or removed so far), and
// the fingerprint is adjusted by the touched blocks' arcs. What remains
// linear in the graph is that one sequential copy.

// MutationOp is the kind of a single Delta entry.
type MutationOp uint8

const (
	// MutAddEdge adds an edge u→v with weight W (1 for unweighted adds).
	// Parallel edges are allowed, as in Builder.
	MutAddEdge MutationOp = iota
	// MutRemoveEdge removes every parallel edge u→v. Removing an edge
	// that does not exist at that point in the log is an error.
	MutRemoveEdge
	// MutSetWeight rewrites the weight of every parallel edge u→v.
	// Reweighting a missing edge is an error.
	MutSetWeight
	// MutAddVertices appends Count isolated vertices (IDs n..n+Count-1);
	// later entries in the same log may reference them.
	MutAddVertices
)

func (op MutationOp) String() string {
	switch op {
	case MutAddEdge:
		return "add"
	case MutRemoveEdge:
		return "del"
	case MutSetWeight:
		return "set"
	case MutAddVertices:
		return "addv"
	}
	return fmt.Sprintf("MutationOp(%d)", uint8(op))
}

// Mutation is one entry of a Delta log.
type Mutation struct {
	Op    MutationOp
	U, V  VertexID // endpoints (edge ops)
	W     float64  // weight (MutAddEdge, MutSetWeight)
	Count int      // vertex count (MutAddVertices)
}

// Delta is an ordered mutation log. Entries are applied strictly in log
// order: "add u v; del u v" leaves no edge, "del u v; add u v" leaves
// exactly the new one.
type Delta struct {
	Muts []Mutation
}

// AddEdge appends an unweighted edge addition.
func (d *Delta) AddEdge(u, v VertexID) { d.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge appends a weighted edge addition.
func (d *Delta) AddWeightedEdge(u, v VertexID, w float64) {
	d.Muts = append(d.Muts, Mutation{Op: MutAddEdge, U: u, V: v, W: w})
}

// RemoveEdge appends a removal of every parallel edge u→v.
func (d *Delta) RemoveEdge(u, v VertexID) {
	d.Muts = append(d.Muts, Mutation{Op: MutRemoveEdge, U: u, V: v})
}

// SetWeight appends a reweight of every parallel edge u→v.
func (d *Delta) SetWeight(u, v VertexID, w float64) {
	d.Muts = append(d.Muts, Mutation{Op: MutSetWeight, U: u, V: v, W: w})
}

// AddVertices appends count new isolated vertices.
func (d *Delta) AddVertices(count int) {
	d.Muts = append(d.Muts, Mutation{Op: MutAddVertices, Count: count})
}

// Len returns the number of log entries.
func (d *Delta) Len() int { return len(d.Muts) }

// ArcKind classifies one directed-arc change in an AppliedDelta.
type ArcKind uint8

const (
	ArcAdd      ArcKind = iota // arc did not exist before, exists now (NewW)
	ArcRemove                  // arc existed before (OldW), does not now
	ArcReweight                // arc survives with OldW rewritten to NewW
)

func (k ArcKind) String() string {
	switch k {
	case ArcAdd:
		return "add"
	case ArcRemove:
		return "remove"
	case ArcReweight:
		return "reweight"
	}
	return fmt.Sprintf("ArcKind(%d)", uint8(k))
}

// ArcChange records the net effect of a Delta on one stored directed arc.
// Undirected edges appear as two changes (one per direction, self-loops
// one); parallel arcs appear once each. OldW is the pre-mutation weight —
// kept here because the mutated graph no longer stores removed arcs, and
// retraction needs the weight the stale contribution was computed with.
type ArcChange struct {
	Kind       ArcKind
	U, V       VertexID
	OldW, NewW float64
}

// AppliedDelta is the net directed-arc diff produced by ApplyDelta,
// together with the identity of the graph it was computed against.
type AppliedDelta struct {
	// OldFingerprint is Fingerprint() of the pre-mutation graph, computed
	// before any structure changed. Warm-start validation matches it
	// against the converged snapshot's fingerprint.
	OldFingerprint uint64
	// NewVertices is how many vertices the delta appended.
	NewVertices int
	// Arcs lists every changed stored arc, sorted by (U, V).
	Arcs []ArcChange
}

// Touched returns the sorted, deduplicated set of vertices incident to
// any changed arc, plus any appended vertices — the activation frontier
// for a warm restart. oldN is the pre-mutation vertex count.
func (a *AppliedDelta) Touched(oldN int) []VertexID {
	ids := make([]VertexID, 0, 2*len(a.Arcs)+a.NewVertices)
	for _, c := range a.Arcs {
		ids = append(ids, c.U, c.V)
	}
	for i := 0; i < a.NewVertices; i++ {
		ids = append(ids, VertexID(oldN+i))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// pairKey identifies a directed arc endpoint pair.
type pairKey struct{ u, v VertexID }

// pendingAdd is an addition not yet folded into the CSR; dead additions
// were cancelled by a later RemoveEdge in the same log. prev chains the
// live additions of one pair, newest first: 1 + the index of the previous
// one, 0 at the end of the chain.
type pendingAdd struct {
	u, v VertexID
	w    float64
	dead bool
	prev int32
}

// pairState is what the log has done so far to one endpoint pair. The zero
// value is a pair the log has not mentioned.
type pairState struct {
	removed    bool    // every original arc of the pair is dropped
	reweighted bool    // the original arcs that survive are rewritten to w
	w          float64 // meaningful with reweighted
	lastAdd    int32   // 1 + index of the newest live pending addition, 0 when none
	orig       int8    // g stores arcs u→v: 0 not looked up yet, 1 yes, -1 no
}

// maxVertices is the most vertices a graph can have: every ID must fit a
// VertexID.
const maxVertices = int64(math.MaxUint32) + 1

// overlay is a graph as a prefix of a chain of mutation logs leaves it: the
// base graph g, with the adjacency blocks those logs rewrote standing in for
// g's own. Each log is interpreted and merged against it, and only the last
// state is ever spliced into a CSR.
type overlay struct {
	g        *Graph
	n        int    // vertex count
	sum      uint64 // arc-hash sum
	weighted bool   // g's, or promoted by some log so far
	// blocks holds the rewritten adjacency; ApplyDeltas fills it between
	// logs, and a single log (ApplyDelta) leaves it nil.
	blocks map[VertexID]arcBlock
}

// arcBlock is one vertex's adjacency as the newest log touching it left it.
type arcBlock struct {
	adj []VertexID
	w   []float64
}

func newOverlay(g *Graph) *overlay {
	g.Fingerprint() // caches the arc-hash sum the overlay starts from
	return &overlay{g: g, n: g.n, sum: g.fpSum.Load(), weighted: g.weighted}
}

// fingerprint is the digest of the overlay's current state.
func (o *overlay) fingerprint() uint64 { return finishFingerprint(o.n, o.g.directed, o.sum) }

// apply interprets d against the overlay's current state and merges the
// blocks it touches, returning them. It advances the vertex count, arc-hash
// sum and weightedness; the blocks become part of the state only once the
// caller records them (ApplyDeltas, before the next log).
func (o *overlay) apply(d *Delta) (*touchedBlocks, error) {
	st := &deltaState{g: o.g, blocks: o.blocks, n: o.n, pairs: make(map[pairKey]pairState)}
	if err := st.interpret(d); err != nil {
		return nil, err
	}
	tb := st.merge()
	o.n = st.n
	o.sum += tb.newSum - tb.oldSum
	o.weighted = o.weighted || tb.weighted
	return tb, nil
}

// union gathers every block the logs rewrote, in vertex order: what
// ApplyDeltas splices.
func (o *overlay) union() *touchedBlocks {
	tb := &touchedBlocks{us: make([]VertexID, 0, len(o.blocks)), off: make([]int64, 1, len(o.blocks)+1)}
	for u := range o.blocks {
		tb.us = append(tb.us, u)
	}
	slices.Sort(tb.us)
	for _, u := range tb.us {
		b := o.blocks[u]
		tb.adj = append(tb.adj, b.adj...)
		tb.w = append(tb.w, b.w...)
		tb.off = append(tb.off, int64(len(tb.adj)))
	}
	return tb
}

// deltaState carries the sequential interpretation of a mutation log.
// Every operation is one map access plus a walk of the pair's own pending
// additions, so a log is interpreted in time linear in its length.
type deltaState struct {
	// The graph the log applies to: g, with the overlay's blocks standing in
	// for g's own. The overlay itself is not referenced, so a single log's
	// overlay does not escape with the merge's output.
	g       *Graph
	blocks  map[VertexID]arcBlock
	n       int // current vertex count (grows with MutAddVertices)
	pairs   map[pairKey]pairState
	adds    []pendingAdd
	touched []VertexID // source vertex of every arc operation, with repeats
}

// outArcs is a cursor over u's adjacency before the log.
func (st *deltaState) outArcs(u VertexID) ArcIter {
	if b, ok := st.blocks[u]; ok {
		return ArcIter{adj: b.adj, ws: b.w}
	}
	if int(u) < st.g.n {
		return st.g.OutArcs(u)
	}
	return ArcIter{}
}

// arcExists reports whether any arc u→v is live at this point in the log.
func (st *deltaState) arcExists(u, v VertexID) bool {
	k := pairKey{u, v}
	ps := st.pairs[k]
	if ps.lastAdd != 0 {
		return true
	}
	if ps.orig == 0 {
		ps.orig = -1
		for it := st.outArcs(u); it.Next() && it.To() <= v; {
			if it.To() == v {
				ps.orig = 1
				break
			}
		}
		st.pairs[k] = ps
	}
	return ps.orig > 0 && !ps.removed
}

func (st *deltaState) doAdd(u, v VertexID, w float64) {
	k := pairKey{u, v}
	ps := st.pairs[k]
	st.adds = append(st.adds, pendingAdd{u: u, v: v, w: w, prev: ps.lastAdd})
	ps.lastAdd = int32(len(st.adds))
	st.pairs[k] = ps
	st.touched = append(st.touched, u)
}

func (st *deltaState) doRemove(u, v VertexID) {
	k := pairKey{u, v}
	ps := st.pairs[k]
	for i := ps.lastAdd; i != 0; i = st.adds[i-1].prev {
		st.adds[i-1].dead = true
	}
	ps.removed, ps.lastAdd = true, 0
	st.pairs[k] = ps
	st.touched = append(st.touched, u)
}

func (st *deltaState) doSet(u, v VertexID, w float64) {
	k := pairKey{u, v}
	ps := st.pairs[k]
	for i := ps.lastAdd; i != 0; i = st.adds[i-1].prev {
		st.adds[i-1].w = w
	}
	ps.reweighted, ps.w = true, w
	st.pairs[k] = ps
	st.touched = append(st.touched, u)
}

// ApplyDelta replays the mutation log against g and returns the mutated
// graph plus the directed-arc diff. g itself is never modified — it stays
// immutable and shareable — and the result shares no storage with it, so
// a result made from a file-mapped graph outlives that graph's Close. The
// result's fingerprint is derived from g's by the touched arcs alone and
// equals what a from-scratch build of the same edges would hash to.
//
// If g had its reverse adjacency built, the result's is built too, so a
// mutated graph can drop into any pipeline the original ran in
// (undirected graphs alias it, compact directed graphs defer it to first
// use, flat directed graphs rebuild it). The representation is preserved:
// mutating a compact graph yields a compact graph, re-encoding only the
// touched vertices' streams.
func ApplyDelta(g *Graph, d *Delta) (*Graph, *AppliedDelta, error) {
	o := newOverlay(g)
	tb, err := o.apply(d)
	if err != nil {
		return nil, nil, err
	}
	ng, err := o.splice(tb)
	if err != nil {
		return nil, nil, err
	}
	return ng, &AppliedDelta{OldFingerprint: g.Fingerprint(), NewVertices: o.n - g.n, Arcs: tb.changes}, nil
}

// ApplyDeltas applies a chain of mutation logs to g in order. It returns
// the graph one ApplyDelta per log would end at, array for array, and
// fps[i], the fingerprint after logs[i], but splices once: log i is
// interpreted and merged against g overlaid with the adjacency blocks logs
// 0…i−1 rewrote, its fingerprint is derived from theirs, and the union of
// every rewritten block goes into one CSR at the end. With no logs it
// returns g itself; otherwise the result shares no storage with g.
//
// On error fps still holds the fingerprint after every log that applied,
// so the failing log is logs[len(fps)]; with len(fps) == len(logs) the
// splice failed (a compact stream past its limit, which is checked on the
// final graph only).
func ApplyDeltas(g *Graph, logs []*Delta) (*Graph, []uint64, error) {
	if len(logs) == 0 {
		return g, nil, nil
	}
	o := newOverlay(g)
	o.blocks = make(map[VertexID]arcBlock)
	fps := make([]uint64, 0, len(logs))
	for _, d := range logs {
		tb, err := o.apply(d)
		if err != nil {
			return nil, fps, err
		}
		for i, u := range tb.us {
			lo, hi := tb.off[i], tb.off[i+1]
			o.blocks[u] = arcBlock{adj: tb.adj[lo:hi:hi], w: tb.w[lo:hi:hi]}
		}
		fps = append(fps, o.fingerprint())
	}
	ng, err := o.splice(o.union())
	return ng, fps, err
}

// interpret runs the log against the per-pair state, checking every entry
// where it stands in the log; nothing is allocated in proportion to what an
// entry claims before that entry is accepted.
func (st *deltaState) interpret(d *Delta) error {
	for i, m := range d.Muts {
		switch m.Op {
		case MutAddVertices:
			if m.Count <= 0 {
				return fmt.Errorf("graph: delta entry %d: addv needs a positive count, got %d", i, m.Count)
			}
			if int64(m.Count) > maxVertices-int64(st.n) {
				return fmt.Errorf("graph: delta entry %d: addv %d on %d vertices exceeds the %d a VertexID can address",
					i, m.Count, st.n, maxVertices)
			}
			st.n += m.Count
			continue
		case MutAddEdge, MutRemoveEdge, MutSetWeight:
			if int(m.U) >= st.n || int(m.V) >= st.n {
				return fmt.Errorf("graph: delta entry %d: %s %d %d out of range for %d vertices",
					i, m.Op, m.U, m.V, st.n)
			}
		default:
			return fmt.Errorf("graph: delta entry %d: unknown op %d", i, m.Op)
		}
		// Mirror edge ops for undirected graphs (self-loops single arc,
		// as in Builder.Finalize).
		mirror := !st.g.directed && m.U != m.V
		switch m.Op {
		case MutAddEdge:
			st.doAdd(m.U, m.V, m.W)
			if mirror {
				st.doAdd(m.V, m.U, m.W)
			}
		case MutRemoveEdge:
			if !st.arcExists(m.U, m.V) {
				return fmt.Errorf("graph: delta entry %d: del %d %d: no such edge", i, m.U, m.V)
			}
			st.doRemove(m.U, m.V)
			if mirror {
				st.doRemove(m.V, m.U)
			}
		case MutSetWeight:
			if !st.arcExists(m.U, m.V) {
				return fmt.Errorf("graph: delta entry %d: set %d %d: no such edge", i, m.U, m.V)
			}
			st.doSet(m.U, m.V, m.W)
			if mirror {
				st.doSet(m.V, m.U, m.W)
			}
		}
	}
	return nil
}

// touchedBlocks holds the new adjacency blocks of the touched source
// vertices, concatenated in vertex order: the merge's output and the
// splice's input.
type touchedBlocks struct {
	us  []VertexID // touched sources, ascending
	off []int64    // block i is adj[off[i]:off[i+1]]
	adj []VertexID // new neighbour lists
	w   []float64  // new weights, parallel to adj

	changes  []ArcChange
	weighted bool   // some new arc carries a weight other than 1
	oldSum   uint64 // arc-hash sum of the touched vertices' old blocks
	newSum   uint64 // … and of their new blocks
}

// merge builds the new block of every touched source: its surviving
// original arcs merged with its live additions, emitting the arc diff
// along the way. The original arcs of a source are already sorted by
// target; additions are sorted stably (log order preserved among parallel
// arcs) and merged in, with originals first on equal targets — fully
// deterministic, no map iteration anywhere on the structure path.
func (st *deltaState) merge() *touchedBlocks {
	live := make([]pendingAdd, 0, len(st.adds))
	for _, a := range st.adds {
		if !a.dead {
			live = append(live, a)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].u != live[j].u {
			return live[i].u < live[j].u
		}
		return live[i].v < live[j].v
	})
	slices.Sort(st.touched)
	tb := &touchedBlocks{us: slices.Compact(st.touched), off: []int64{0}}
	ai := 0 // cursor into live additions
	for _, u := range tb.us {
		var oldH, newH blockHasher
		emit := func(v VertexID, w float64) {
			tb.adj = append(tb.adj, v)
			tb.w = append(tb.w, w)
			if w != 1 {
				tb.weighted = true
			}
			newH.add(u, v, w)
		}
		it := st.outArcs(u)
		more := it.Next()
		for more || (ai < len(live) && live[ai].u == u) {
			if more && (ai == len(live) || live[ai].u != u || it.To() <= live[ai].v) {
				v, ow := it.To(), it.Weight()
				more = it.Next()
				oldH.add(u, v, ow)
				ps := st.pairs[pairKey{u, v}]
				if ps.removed {
					tb.changes = append(tb.changes, ArcChange{Kind: ArcRemove, U: u, V: v, OldW: ow})
					continue
				}
				w := ow
				if ps.reweighted {
					w = ps.w
				}
				if math.Float64bits(w) != math.Float64bits(ow) {
					tb.changes = append(tb.changes, ArcChange{Kind: ArcReweight, U: u, V: v, OldW: ow, NewW: w})
				}
				emit(v, w)
			} else {
				a := live[ai]
				ai++
				tb.changes = append(tb.changes, ArcChange{Kind: ArcAdd, U: a.u, V: a.v, NewW: a.w})
				emit(a.v, a.w)
			}
		}
		tb.off = append(tb.off, int64(len(tb.adj)))
		tb.oldSum += oldH.sum
		tb.newSum += newH.sum
	}
	return tb
}

// splice assembles the overlay's current state as a CSR: the spans of
// untouched vertices between touched ones are copied from the base graph,
// the touched blocks tb come from the merges. Flat and compact graphs take
// the same two routines and differ only in the adjacency's element and
// offset types.
func (o *overlay) splice(tb *touchedBlocks) (*Graph, error) {
	g, n2 := o.g, o.n
	ng := &Graph{n: n2, directed: g.directed, weighted: o.weighted}
	ng.outOff, _, _ = spliceOffsets(g.outOff, n2, tb.us, tb.off, math.MaxInt64)
	if g.cOutIdx == nil {
		ng.outAdj = spliceData(g.outAdj, g.outOff, ng.outOff, tb.us, tb.adj)
	} else {
		enc, encOff, err := encodeAdj(tb.off, tb.adj, "out")
		if err != nil {
			var ov *CompactOverflowError
			if errors.As(err, &ov) {
				ov.Vertex = int(tb.us[ov.Vertex]) // encodeAdj counted blocks
			}
			return nil, err
		}
		var over int
		var bytes int64
		ng.cOutIdx, over, bytes = spliceOffsets(g.cOutIdx, n2, tb.us, encOff, int64(maxCompactStream))
		if over >= 0 {
			return nil, &CompactOverflowError{Direction: "out", Vertex: over, Bytes: uint64(bytes)}
		}
		ng.cOut = spliceData(g.cOut, g.cOutIdx, ng.cOutIdx, tb.us, enc)
	}
	if ng.weighted {
		oldW := g.outW
		if oldW == nil {
			// The delta promoted an unweighted graph: every old arc gets
			// its implicit weight 1 spelled out.
			oldW = make([]float64, g.NumArcs())
			for i := range oldW {
				oldW[i] = 1
			}
		}
		ng.outW = spliceData(oldW, g.outOff, ng.outOff, tb.us, tb.w)
	}
	ng.setFingerprint(o.sum)
	if !ng.directed || g.HasReverse() {
		ng.BuildReverse()
	}
	return ng, nil
}

// spliceOffsets builds the offset array of a spliced graph with n2
// vertices: a touched vertex us[i] gets the length of block i
// (blockOff[i+1]-blockOff[i]), any other vertex keeps the length it has in
// old (appended vertices have none). It also reports the first vertex
// whose end offset exceeds limit, with that offset, or -1: the caller must
// not use offsets that wrapped.
func spliceOffsets[O int64 | uint32](old []O, n2 int, us []VertexID, blockOff []O, limit int64) (off []O, over int, overEnd int64) {
	oldN := len(old) - 1
	off = make([]O, n2+1)
	over = -1
	// length is vertex u's new length; next indexes us.
	length := func(u, next int) int64 {
		switch {
		case next < len(us) && int(us[next]) == u:
			return int64(blockOff[next+1] - blockOff[next])
		case u < oldN:
			return int64(old[u+1] - old[u])
		}
		return 0
	}
	var end int64 // off[u]
	for u, next := 0, 0; u < n2; next++ {
		from, fromEnd := u, end
		stop := n2 // the next touched vertex, or past the last one
		if next < len(us) {
			stop = int(us[next])
		}
		// The untouched vertices up to stop keep their lengths: their
		// offsets are old's, shifted by one amount; appended ones are empty.
		if hi := min(stop, oldN); u < hi {
			shift := end - int64(old[u])
			for ; u < hi; u++ {
				off[u+1] = O(int64(old[u+1]) + shift)
			}
			end = int64(old[hi]) + shift
		}
		for ; u < stop; u++ {
			off[u+1] = O(end)
		}
		if u < n2 {
			end += length(u, next)
			off[u+1] = O(end)
			u++
		}
		if end > limit && over < 0 {
			// Offsets only grow: the first to pass limit is in this stretch.
			for over, overEnd = from, fromEnd; ; over++ {
				if overEnd += length(over, next); overEnd > limit {
					break
				}
			}
		}
	}
	return off, over, overEnd
}

// spliceData builds one data array (neighbours, stream bytes or weights)
// of a spliced graph laid out by newOff: the touched vertices us take
// their elements from blocks, in order; every span of vertices between
// them is one copy out of old.
func spliceData[E any, O int64 | uint32](old []E, oldOff, newOff []O, us []VertexID, blocks []E) []E {
	oldN := len(oldOff) - 1
	out := make([]E, newOff[len(newOff)-1])
	from := 0 // first old vertex not copied yet
	for _, u := range us {
		to := min(int(u), oldN)
		copy(out[newOff[from]:], old[oldOff[from]:oldOff[to]])
		blocks = blocks[copy(out[newOff[u]:newOff[u+1]], blocks):]
		from = min(int(u)+1, oldN)
	}
	copy(out[newOff[from]:], old[oldOff[from]:oldOff[oldN]])
	return out
}
