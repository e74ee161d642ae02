package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// This file is the store's generative equivalence suite. Its oracle is a
// model of the mutation semantics that knows nothing about CSR: a list of
// logical edges in insertion order. ApplyDelta must produce exactly the
// graph the Builder builds from the model's final list — array for array,
// fingerprint included — and exactly the arc diff between the two lists.

// modelEdge is one logical edge (an undirected edge is one entry). seq is
// its insertion rank over the model's whole life: it identifies the edge
// across mutations and orders parallel arcs.
type modelEdge struct {
	u, v VertexID
	w    float64
	seq  int
}

type model struct {
	n        int
	directed bool
	weighted bool // see settle
	edges    []modelEdge
	nextSeq  int
}

// settle fixes weightedness at the end of a build or a log: a graph is
// weighted when it was before, or when an edge it now holds carries a
// weight other than 1 — a graph never becomes unweighted again, and an
// addition the same log removed promotes nothing.
func (m *model) settle() {
	for _, e := range m.edges {
		if e.w != 1 {
			m.weighted = true
		}
	}
}

// applyLog is the reference semantics of a whole log.
func (m *model) applyLog(muts []Mutation) error {
	for _, mut := range muts {
		if err := m.apply(mut); err != nil {
			return err
		}
	}
	m.settle()
	return nil
}

func (m *model) clone() *model {
	c := *m
	c.edges = slices.Clone(m.edges)
	return &c
}

func (m *model) add(u, v VertexID, w float64) {
	m.edges = append(m.edges, modelEdge{u, v, w, m.nextSeq})
	m.nextSeq++
}

func (m *model) matches(e modelEdge, u, v VertexID) bool {
	return (e.u == u && e.v == v) || (!m.directed && e.u == v && e.v == u)
}

// apply is the reference semantics of one log entry.
func (m *model) apply(mut Mutation) error {
	if mut.Op == MutAddVertices {
		if mut.Count <= 0 {
			return fmt.Errorf("bad addv")
		}
		m.n += mut.Count
		return nil
	}
	if int(mut.U) >= m.n || int(mut.V) >= m.n {
		return fmt.Errorf("out of range")
	}
	switch mut.Op {
	case MutAddEdge:
		m.add(mut.U, mut.V, mut.W)
	case MutRemoveEdge:
		kept := m.edges[:0:0]
		for _, e := range m.edges {
			if !m.matches(e, mut.U, mut.V) {
				kept = append(kept, e)
			}
		}
		if len(kept) == len(m.edges) {
			return fmt.Errorf("no such edge")
		}
		m.edges = kept
	case MutSetWeight:
		found := false
		for i, e := range m.edges {
			if m.matches(e, mut.U, mut.V) {
				m.edges[i].w, found = mut.W, true
			}
		}
		if !found {
			return fmt.Errorf("no such edge")
		}
	default:
		return fmt.Errorf("unknown op")
	}
	return nil
}

// build is the from-scratch construction the store must agree with.
func (m *model) build(compact bool) *Graph {
	b := NewBuilder(m.n, m.directed)
	for _, e := range m.edges {
		b.AddWeightedEdge(e.u, e.v, e.w)
	}
	b.weighted = m.weighted
	b.SetCompact(compact)
	return b.Finalize()
}

// arcs lists the stored arcs in storage order — by (u, v), parallel arcs by
// insertion — each as the edge it came from, oriented the way it is stored.
func (m *model) arcs() []modelEdge {
	var out []modelEdge
	for _, e := range m.edges {
		out = append(out, e)
		if !m.directed && e.u != e.v {
			out = append(out, modelEdge{e.v, e.u, e.w, e.seq})
		}
	}
	slices.SortFunc(out, func(a, b modelEdge) int {
		if a.u != b.u {
			return int(a.u) - int(b.u)
		}
		if a.v != b.v {
			return int(a.v) - int(b.v)
		}
		return a.seq - b.seq
	})
	return out
}

// diff is the arc diff between two states of one model: edges are
// identified by seq, so "del; add" of the same pair is a removal plus an
// addition, never a no-op.
func diff(before, after *model) []ArcChange {
	type key struct {
		u, v VertexID
		seq  int
	}
	now := make(map[key]float64)
	for _, a := range after.arcs() {
		now[key{a.u, a.v, a.seq}] = a.w
	}
	type entry struct {
		c   ArcChange
		seq int
	}
	var es []entry
	was := make(map[key]bool)
	for _, a := range before.arcs() {
		k := key{a.u, a.v, a.seq}
		was[k] = true
		w, ok := now[k]
		switch {
		case !ok:
			es = append(es, entry{ArcChange{Kind: ArcRemove, U: a.u, V: a.v, OldW: a.w}, a.seq})
		case math.Float64bits(w) != math.Float64bits(a.w):
			es = append(es, entry{ArcChange{Kind: ArcReweight, U: a.u, V: a.v, OldW: a.w, NewW: w}, a.seq})
		}
	}
	for _, a := range after.arcs() {
		if !was[key{a.u, a.v, a.seq}] {
			es = append(es, entry{ArcChange{Kind: ArcAdd, U: a.u, V: a.v, NewW: a.w}, a.seq})
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if a.c.U != b.c.U {
			return int(a.c.U) - int(b.c.U)
		}
		if a.c.V != b.c.V {
			return int(a.c.V) - int(b.c.V)
		}
		return a.seq - b.seq
	})
	var out []ArcChange
	for _, e := range es {
		out = append(out, e.c)
	}
	return out
}

// sameArrays fails unless got and want hold identical storage: offsets,
// adjacency slice or stream bytes plus their index, and weights.
func sameArrays(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.directed != want.directed || got.weighted != want.weighted {
		t.Fatalf("%s: shape n=%d directed=%v weighted=%v, want n=%d directed=%v weighted=%v",
			label, got.n, got.directed, got.weighted, want.n, want.directed, want.weighted)
	}
	if got.IsCompact() != want.IsCompact() {
		t.Fatalf("%s: representation %s, want %s", label, got.Repr(), want.Repr())
	}
	if !slices.Equal(got.outOff, want.outOff) {
		t.Fatalf("%s: outOff\n got %v\nwant %v", label, got.outOff, want.outOff)
	}
	if !slices.Equal(got.outAdj, want.outAdj) {
		t.Fatalf("%s: outAdj\n got %v\nwant %v", label, got.outAdj, want.outAdj)
	}
	if !slices.Equal(got.cOutIdx, want.cOutIdx) {
		t.Fatalf("%s: cOutIdx\n got %v\nwant %v", label, got.cOutIdx, want.cOutIdx)
	}
	if !bytes.Equal(got.cOut, want.cOut) {
		t.Fatalf("%s: cOut\n got %v\nwant %v", label, got.cOut, want.cOut)
	}
	if (got.outW == nil) != (want.outW == nil) || !slices.EqualFunc(got.outW, want.outW, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Fatalf("%s: outW\n got %v\nwant %v", label, got.outW, want.outW)
	}
}

// sameReverse fails unless the two graphs agree on every in-list.
func sameReverse(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	for u := 0; u < want.n; u++ {
		id := VertexID(u)
		checkSame(t, fmt.Sprintf("%s: in-list of %d", label, u),
			want.InNeighbors(id), got.InNeighbors(id), want.InWeights(id), got.InWeights(id))
	}
}

// scratchFingerprint recomputes g's digest from its arcs, ignoring the
// cache ApplyDelta filled.
func scratchFingerprint(g *Graph) uint64 {
	return finishFingerprint(g.n, g.directed, g.arcHashSum())
}

// checkApplyDelta holds ApplyDelta(build(before), muts) to the oracle on
// both representations and reports whether the log was valid.
func checkApplyDelta(t *testing.T, before *model, muts []Mutation) (after *model, ok bool) {
	t.Helper()
	after = before.clone()
	wantErr := after.applyLog(muts)
	var results [2]*Graph
	var diffs [2][]ArcChange
	for i, compact := range []bool{false, true} {
		label := map[bool]string{false: "flat", true: "compact"}[compact]
		g := before.build(compact)
		if before.directed {
			g.BuildReverse()
		}
		oldFP := g.Fingerprint()
		ng, ad, err := ApplyDelta(g, &Delta{Muts: muts})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: ApplyDelta error = %v, model says %v", label, err, wantErr)
		}
		sameArrays(t, label+": source graph after ApplyDelta", g, before.build(compact))
		if err != nil {
			continue
		}
		want := after.build(compact)
		sameArrays(t, label, ng, want)
		if !reflect.DeepEqual(ad.Arcs, diff(before, after)) {
			t.Fatalf("%s: Arcs\n got %v\nwant %v", label, ad.Arcs, diff(before, after))
		}
		if ad.OldFingerprint != oldFP || ad.NewVertices != after.n-before.n {
			t.Fatalf("%s: AppliedDelta{OldFingerprint %016x NewVertices %d}, want {%016x %d}",
				label, ad.OldFingerprint, ad.NewVertices, oldFP, after.n-before.n)
		}
		if fp := ng.Fingerprint(); fp != scratchFingerprint(ng) || fp != want.Fingerprint() {
			t.Fatalf("%s: derived fingerprint %016x, recomputed %016x, Builder graph %016x",
				label, fp, scratchFingerprint(ng), want.Fingerprint())
		}
		if !ng.HasReverse() {
			t.Fatalf("%s: reverse adjacency lost", label)
		}
		want.BuildReverse()
		sameReverse(t, label, ng, want)
		results[i], diffs[i] = ng, ad.Arcs
	}
	if wantErr != nil {
		return nil, false
	}
	if results[0].Fingerprint() != results[1].Fingerprint() || !reflect.DeepEqual(diffs[0], diffs[1]) {
		t.Fatalf("flat and compact disagree: %016x %v vs %016x %v",
			results[0].Fingerprint(), diffs[0], results[1].Fingerprint(), diffs[1])
	}
	for u := range results[0].n {
		id := VertexID(u)
		checkIter(t, results[1].OutArcs(id), results[0].OutNeighbors(id), results[0].OutWeights(id))
	}
	return after, true
}

var modelWeights = []float64{1, 1, 2, 0.5, 3.25, math.Float64frombits(math.Float64bits(2) + 1)}

// randModel draws a small graph dense in the awkward cases: parallel arcs,
// self-loops, isolated vertices.
func randModel(rng *rand.Rand) *model {
	m := &model{n: 1 + rng.Intn(10), directed: rng.Intn(2) == 0}
	weighted := rng.Intn(2) == 0
	for i := rng.Intn(4 * m.n); i > 0; i-- {
		w := 1.0
		if weighted {
			w = modelWeights[rng.Intn(len(modelWeights))]
		}
		m.add(VertexID(rng.Intn(m.n)), VertexID(rng.Intn(m.n)), w)
	}
	m.settle()
	return m
}

// randLog draws a log against a scratch copy of m, so most entries are
// valid where they stand: removals and reweights of original edges, of
// edges the same log added (add-then-del), re-additions of removed pairs
// (del-then-add), appended vertices and edges on them. With invalid set, one
// log in eight also carries an entry that may not apply.
func randLog(rng *rand.Rand, m *model, entries int, invalid bool) []Mutation {
	sc := m.clone()
	var d Delta
	var gone [][2]VertexID
	for len(d.Muts) < entries {
		switch op := rng.Intn(10); {
		case op < 4 || len(sc.edges) == 0 && op < 8:
			u, v := VertexID(rng.Intn(sc.n)), VertexID(rng.Intn(sc.n))
			if len(gone) > 0 && rng.Intn(3) == 0 {
				p := gone[rng.Intn(len(gone))]
				u, v = p[0], p[1]
			}
			d.AddWeightedEdge(u, v, modelWeights[rng.Intn(len(modelWeights))])
		case op < 6:
			e := sc.edges[rng.Intn(len(sc.edges))]
			if !sc.directed && rng.Intn(2) == 0 {
				e.u, e.v = e.v, e.u
			}
			d.RemoveEdge(e.u, e.v)
			gone = append(gone, [2]VertexID{e.u, e.v})
		case op < 8:
			e := sc.edges[rng.Intn(len(sc.edges))]
			d.SetWeight(e.u, e.v, modelWeights[rng.Intn(len(modelWeights))])
		case op < 9:
			d.AddVertices(1 + rng.Intn(2))
		default:
			if !invalid || rng.Intn(8) != 0 {
				continue
			}
			u, v := VertexID(rng.Intn(sc.n+1)), VertexID(rng.Intn(sc.n))
			if rng.Intn(2) == 0 {
				d.RemoveEdge(u, v)
			} else {
				d.SetWeight(u, v, 2)
			}
		}
		if sc.apply(d.Muts[len(d.Muts)-1]) != nil {
			break // the log ends at its first invalid entry
		}
	}
	return d.Muts
}

func TestApplyDeltaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 1500; i++ {
		m := randModel(rng)
		if _, ok := checkApplyDelta(t, m, randLog(rng, m, rng.Intn(12), true)); ok {
			valid++
		}
	}
	if valid < 1000 {
		t.Fatalf("only %d of 1500 random logs were valid; the generator is off", valid)
	}
}

// checkApplyDeltas holds ApplyDeltas(boot(), logs) to ApplyDelta applied
// once per log to another boot() copy: the same fingerprint after every log
// that applies, an error when one does not, and otherwise the same arrays
// (weightedness included) and reverse adjacency, and the Builder's graph of
// the model. The source ApplyDeltas read is closed before its result is
// looked at, so a result that borrowed from a file-mapped source faults. It
// returns that result, nil when a log does not apply.
func checkApplyDeltas(t *testing.T, label string, boot func() *Graph, m0 *model, logs [][]Mutation) *Graph {
	t.Helper()
	m, g := m0.clone(), boot()
	ds := make([]*Delta, len(logs))
	var fps []uint64
	valid := true
	for i, muts := range logs {
		ds[i] = &Delta{Muts: muts}
		if valid = valid && m.applyLog(muts) == nil; !valid {
			continue
		}
		var err error
		if g, _, err = ApplyDelta(g, ds[i]); err != nil {
			t.Fatalf("%s: log %d: ApplyDelta: %v, the model applies it", label, i, err)
		}
		fps = append(fps, g.Fingerprint())
	}
	src := boot()
	one, got, err := ApplyDeltas(src, ds)
	src.Close()
	if !slices.Equal(got, fps) {
		t.Fatalf("%s: fingerprint after each log\n got %016x\nwant %016x", label, got, fps)
	}
	if (err == nil) != valid {
		t.Fatalf("%s: ApplyDeltas error = %v, the model applies every log: %v", label, err, valid)
	}
	if !valid {
		return nil
	}
	sameArrays(t, label+": one splice vs one per log", one, g)
	sameArrays(t, label+": one splice vs Builder", one, m.build(g.IsCompact()))
	if fp := one.Fingerprint(); fp != fps[len(fps)-1] || fp != scratchFingerprint(one) {
		t.Fatalf("%s: derived fingerprint %016x, last step %016x, recomputed %016x",
			label, fp, fps[len(fps)-1], scratchFingerprint(one))
	}
	if one.HasReverse() != g.HasReverse() {
		t.Fatalf("%s: HasReverse %v, one per log %v", label, one.HasReverse(), g.HasReverse())
	}
	if g.HasReverse() {
		sameReverse(t, label, one, g)
	}
	return one
}

// TestApplyDeltaChainEqualsConcatenation applies 32 logs three ways — one
// ApplyDelta per log, the logs concatenated into one delta, and ApplyDeltas,
// which splices once — and gets the Builder's graph and fingerprint from
// each. Then the chains a random draw reaches only by luck: a weighted add a
// later log removes (the chain stays weighted, the concatenation does not),
// edges on vertices an earlier log appended, a flat directed graph with its
// reverse built, and a file-mapped source closed under the result.
func TestApplyDeltaChainEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		m0 := randModel(rng)
		for _, compact := range []bool{false, true} {
			m := m0.clone()
			logs := make([][]Mutation, 32)
			var all []Mutation
			for k := range logs {
				logs[k] = randLog(rng, m, 1+rng.Intn(4), false)
				if err := m.applyLog(logs[k]); err != nil {
					t.Fatal(err)
				}
				all = append(all, logs[k]...)
			}
			reverse := m0.directed && i%2 == 0
			boot := func() *Graph {
				g := m0.build(compact)
				if reverse {
					g.BuildReverse()
				}
				return g
			}
			g := checkApplyDeltas(t, fmt.Sprintf("model %d compact=%v", i, compact), boot, m0, logs)
			once, _, err := ApplyDelta(m0.build(compact), &Delta{Muts: all})
			if err != nil {
				t.Fatal(err)
			}
			sameArrays(t, "32 chained deltas vs one", g, once)
			if g.Fingerprint() != once.Fingerprint() {
				t.Fatalf("chained %016x, concatenated %016x", g.Fingerprint(), once.Fingerprint())
			}
		}
	}

	path := func(directed, weighted bool) *model {
		m := &model{n: 4, directed: directed}
		for u := VertexID(0); u < 3; u++ {
			w := 1.0
			if weighted {
				w = float64(u) + 2
			}
			m.add(u, u+1, w)
		}
		m.settle()
		return m
	}
	built := func(m *model, compact, reverse bool) func() *Graph {
		return func() *Graph {
			g := m.build(compact)
			if reverse {
				g.BuildReverse()
			}
			return g
		}
	}
	add := func(u, v VertexID, w float64) Mutation { return Mutation{Op: MutAddEdge, U: u, V: v, W: w} }
	del := func(u, v VertexID) Mutation { return Mutation{Op: MutRemoveEdge, U: u, V: v} }
	promote := [][]Mutation{{add(0, 2, 2.5)}, {del(0, 2)}}
	grow := [][]Mutation{{{Op: MutAddVertices, Count: 2}}, {add(4, 5, 1.5), add(0, 4, 1)}, {del(4, 5), add(5, 3, 3)}}
	for _, directed := range []bool{true, false} {
		m := path(directed, false)
		label := fmt.Sprintf("directed=%v: weighted add removed later", directed)
		one := checkApplyDeltas(t, label, built(m, !directed, false), m, promote)
		once, _, err := ApplyDelta(m.build(!directed), &Delta{Muts: slices.Concat(promote...)})
		if err != nil {
			t.Fatal(err)
		}
		if !one.Weighted() || once.Weighted() {
			t.Fatalf("%s: one splice weighted=%v, concatenation %v; want true, false", label, one.Weighted(), once.Weighted())
		}
	}
	m := path(true, true)
	checkApplyDeltas(t, "compact: edges on appended vertices", built(m, true, false), m, grow)
	checkApplyDeltas(t, "flat directed with reverse", built(m, false, true), m, grow)

	file := filepath.Join(t.TempDir(), "g.dvg")
	if err := WriteGraphFile(file, m.build(true)); err != nil {
		t.Fatal(err)
	}
	mapped := func() *Graph {
		g, err := ReadGraphFile(file, LoadMmap)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	if !mapped().Mapped() {
		t.Log("file mapping unavailable on this host; a mapped source is not checked")
		return
	}
	checkApplyDeltas(t, "mapped source", mapped, m, grow)
}

// TestFingerprintSeparates pins what the digest must still tell apart now
// that it is a sum: the sum alone is blind to n and directedness, and a
// sum of per-arc terms without the parallel ordinal would be blind to the
// order of parallel arcs.
func TestFingerprintSeparates(t *testing.T) {
	build := func(n int, directed bool, edges ...modelEdge) uint64 {
		b := NewBuilder(n, directed)
		for _, e := range edges {
			b.AddWeightedEdge(e.u, e.v, e.w)
		}
		return b.Finalize().Fingerprint()
	}
	e := func(u, v VertexID, w float64) modelEdge { return modelEdge{u: u, v: v, w: w} }
	base := build(3, true, e(0, 1, 2), e(0, 1, 3), e(1, 0, 2), e(1, 0, 3))
	for name, other := range map[string]uint64{
		"one more isolated vertex":     build(4, true, e(0, 1, 2), e(0, 1, 3), e(1, 0, 2), e(1, 0, 3)),
		"undirected, same stored arcs": build(3, false, e(0, 1, 2), e(0, 1, 3)),
		"one weight bit":               build(3, true, e(0, 1, 2), e(0, 1, math.Float64frombits(math.Float64bits(3)^1)), e(1, 0, 2), e(1, 0, 3)),
		"parallel arcs swapped":        build(3, true, e(0, 1, 3), e(0, 1, 2), e(1, 0, 2), e(1, 0, 3)),
		"weights moved across pairs":   build(3, true, e(0, 1, 2), e(0, 1, 2), e(1, 0, 3), e(1, 0, 3)),
	} {
		if other == base {
			t.Errorf("%s: fingerprint %016x does not change", name, base)
		}
	}
	if again := build(3, true, e(0, 1, 2), e(1, 0, 2), e(0, 1, 3), e(1, 0, 3)); again != base {
		t.Errorf("insertion order across different pairs changed the fingerprint: %016x != %016x", again, base)
	}
}

// TestVerifyFingerprint: a digest ApplyDelta derived passes the re-hash on
// both representations, and fails it once an untouched span — which the
// derivation never looked at — no longer holds what the source held.
func TestVerifyFingerprint(t *testing.T) {
	b := NewBuilder(6, true)
	for u := 0; u < 6; u++ {
		b.AddWeightedEdge(VertexID(u), VertexID((u+1)%6), 2)
		b.AddWeightedEdge(VertexID(u), VertexID((u+2)%6), 3)
	}
	d := &Delta{}
	d.AddWeightedEdge(0, 3, 5)
	d.RemoveEdge(4, 5)
	flat := b.Finalize()
	compact, err := Compact(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{flat, compact} {
		if err := g.VerifyFingerprint(); err != nil {
			t.Fatalf("no cached digest yet: %v", err)
		}
		ng, _, err := ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := ng.VerifyFingerprint(); err != nil {
			t.Fatalf("compact=%v: spliced graph: %v", g.IsCompact(), err)
		}
		ng.outW[len(ng.outW)-1]++ // vertex 5: untouched by the delta
		if err := ng.VerifyFingerprint(); err == nil {
			t.Errorf("compact=%v: a changed weight in an untouched span passes the re-hash", g.IsCompact())
		}
	}
}

// sourcesTouched lists the source vertices whose adjacency blocks ApplyDelta
// rebuilds for muts on a graph of the given directedness; every other
// block is copied as it lies.
func sourcesTouched(muts []Mutation, directed bool) map[VertexID]bool {
	out := map[VertexID]bool{}
	for _, m := range muts {
		if m.Op == MutAddVertices {
			continue
		}
		out[m.U] = true
		if !directed {
			out[m.V] = true
		}
	}
	return out
}

// TestTipRehashCatchesEarlierCorruption is why a chain replay may re-hash
// only its tip. After step i of a random k-step delta chain one weight is
// corrupted in a block the next delta copies rather than rebuilds — a
// miscopied span the derived digest cannot see. Every later splice
// subtracts and adds the real arrays' block hashes, so the gap between the
// derived arc-hash sum and a re-hash stays exactly what the corruption made
// it, and VerifyFingerprint on the final graph fails. The corruption is a
// weight bit so every later log still applies: a changed target could
// break a removal the log makes.
func TestTipRehashCatchesEarlierCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := 0
	for trial := 0; trial < 300; trial++ {
		m0 := randModel(rng)
		compact := rng.Intn(2) == 0
		k := 2 + rng.Intn(6)
		m := m0.clone()
		logs := make([][]Mutation, k)
		for j := range logs {
			logs[j] = randLog(rng, m, 1+rng.Intn(4), false)
			if err := m.applyLog(logs[j]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			g := m0.build(compact)
			var drift uint64
			corrupted := false
			for j := 0; j < k; j++ {
				var err error
				if g, _, err = ApplyDelta(g, &Delta{Muts: logs[j]}); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, j, err)
				}
				if j == i {
					var next map[VertexID]bool
					if j+1 < k {
						next = sourcesTouched(logs[j+1], g.directed)
					}
					var spans []int // arc indices in blocks the next delta copies
					for u := 0; u < g.n && g.outW != nil; u++ {
						if !next[VertexID(u)] {
							for a := g.outOff[u]; a < g.outOff[u+1]; a++ {
								spans = append(spans, int(a))
							}
						}
					}
					if len(spans) == 0 {
						break // unweighted, or nothing left untouched: no case
					}
					a := spans[rng.Intn(len(spans))]
					g.outW[a] = math.Float64frombits(math.Float64bits(g.outW[a]) ^ 1)
					drift = g.fpSum.Load() - g.arcHashSum()
					if drift == 0 {
						t.Fatalf("trial %d step %d: a flipped weight bit leaves the arc-hash sum unchanged", trial, j)
					}
					corrupted = true
				} else if corrupted {
					if got := g.fpSum.Load() - g.arcHashSum(); got != drift {
						t.Fatalf("trial %d: corrupted after step %d, derived − re-hashed is %#x after step %d, was %#x",
							trial, i, got, j, drift)
					}
				}
			}
			if !corrupted {
				continue
			}
			cases++
			if err := g.VerifyFingerprint(); err == nil {
				t.Fatalf("trial %d: corrupted after step %d of %d, the final graph passes VerifyFingerprint", trial, i, k)
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d corrupted chains; the generator is off", cases)
	}

	// One splice: ApplyDeltas copies every block no log touches straight
	// from the boot graph, so flip a weight bit there, after the boot
	// graph's digest is cached. Every derived step fingerprint still reads
	// as the clean run's; only the re-hash of the result can catch it.
	rng = rand.New(rand.NewSource(9))
	bootCases := 0
	for trial := 0; trial < 300; trial++ {
		m0 := randModel(rng)
		compact := rng.Intn(2) == 0
		m := m0.clone()
		ds := make([]*Delta, 2+rng.Intn(6))
		touched := map[VertexID]bool{}
		for j := range ds {
			ds[j] = &Delta{Muts: randLog(rng, m, 1+rng.Intn(4), false)}
			if err := m.applyLog(ds[j].Muts); err != nil {
				t.Fatal(err)
			}
			for u := range sourcesTouched(ds[j].Muts, m0.directed) {
				touched[u] = true
			}
		}
		_, clean, err := ApplyDeltas(m0.build(compact), ds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		boot := m0.build(compact)
		boot.Fingerprint()
		var spans []int // arc indices in blocks no log touches
		for u := 0; u < boot.n && boot.outW != nil; u++ {
			if !touched[VertexID(u)] {
				for a := boot.outOff[u]; a < boot.outOff[u+1]; a++ {
					spans = append(spans, int(a))
				}
			}
		}
		if len(spans) == 0 {
			continue // unweighted, or every block touched: no case
		}
		a := spans[rng.Intn(len(spans))]
		boot.outW[a] = math.Float64frombits(math.Float64bits(boot.outW[a]) ^ 1)
		g, fps, err := ApplyDeltas(boot, ds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(fps, clean) {
			t.Fatalf("trial %d: boot graph corrupted in an untouched block: step fingerprints %016x, clean run %016x", trial, fps, clean)
		}
		if err := g.VerifyFingerprint(); err == nil {
			t.Fatalf("trial %d: boot graph corrupted in an untouched block, the one-splice result passes VerifyFingerprint", trial)
		}
		bootCases++
	}
	if bootCases < 40 {
		t.Fatalf("only %d corrupted boot graphs; the generator is off", bootCases)
	}
}

// TestApplyDeltaOutlivesMappedSource closes a file-mapped source graph and
// then reads every array of the graph ApplyDelta made from it: a result
// that borrowed any span from the mapping would fault here.
func TestApplyDeltaOutlivesMappedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := &model{n: 200, directed: true}
	for i := 0; i < 1500; i++ {
		m.add(VertexID(rng.Intn(m.n)), VertexID(rng.Intn(m.n)), modelWeights[rng.Intn(len(modelWeights))])
	}
	m.settle()
	path := filepath.Join(t.TempDir(), "g.dvg")
	if err := WriteGraphFile(path, m.build(true)); err != nil {
		t.Fatal(err)
	}
	src, err := ReadGraphFile(path, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Mapped() {
		src.Close()
		t.Skip("file mapping unavailable on this host")
	}
	muts := randLog(rng, m, 20, false)
	ng, _, err := ApplyDelta(src, &Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if src.Mapped() || ng.Mapped() {
		t.Fatalf("after Close: source mapped=%v, result mapped=%v", src.Mapped(), ng.Mapped())
	}
	if err := m.applyLog(muts); err != nil {
		t.Fatal(err)
	}
	sameArrays(t, "result of a mapped source, after its Close", ng, m.build(true))
}

// TestApplyDeltaLongLogIsLinear is the regression test for log
// interpretation that rescanned every pending addition per removal: a
// 32 k-entry log alternating additions with removals of earlier additions
// (and re-additions of removed pairs) must still produce the Builder's
// graph, and an 8× longer log must not cost anywhere near 64× the time.
func TestApplyDeltaLongLogIsLinear(t *testing.T) {
	g := RMAT(14, 8, 0.57, 0.19, 0.19, true, 5)
	// alternating returns the log and the additions that survive it, in
	// log order. It never names a pair g already stores, so a removal
	// takes exactly one pending addition with it.
	alternating := func(entries int) (*Delta, [][2]VertexID) {
		rng := rand.New(rand.NewSource(6))
		d := &Delta{}
		taken := map[[2]VertexID]bool{}
		for u := 0; u < g.n; u++ {
			g.ForEachOutNeighbor(VertexID(u), func(v VertexID) { taken[[2]VertexID{VertexID(u), v}] = true })
		}
		addedAt := map[[2]VertexID]int{} // pending pair → its log entry
		var pending [][2]VertexID
		for d.Len() < entries {
			p := [2]VertexID{VertexID(rng.Intn(g.n)), VertexID(rng.Intn(g.n))}
			if taken[p] {
				continue
			}
			taken[p], addedAt[p] = true, d.Len()
			d.AddEdge(p[0], p[1])
			pending = append(pending, p)
			if rng.Intn(4) != 0 {
				k := rng.Intn(len(pending))
				q := pending[k]
				d.RemoveEdge(q[0], q[1])
				pending[k] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				delete(taken, q) // free to come back: del-then-add
				delete(addedAt, q)
			}
		}
		slices.SortFunc(pending, func(a, b [2]VertexID) int { return addedAt[a] - addedAt[b] })
		return d, pending
	}
	d, survivors := alternating(32000)
	ng, _, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(g.n, true)
	for u := 0; u < g.n; u++ {
		g.ForEachOutNeighbor(VertexID(u), func(v VertexID) { b.AddEdge(VertexID(u), v) })
	}
	for _, p := range survivors {
		b.AddEdge(p[0], p[1])
	}
	sameArrays(t, "32k-entry log", ng, b.Finalize())

	best := func(entries int) time.Duration {
		d, _ := alternating(entries)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, _, err := ApplyDelta(g, d); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	short, long := best(8000), best(64000)
	t.Logf("8k entries %v, 64k entries %v (×%.1f)", short, long, float64(long)/float64(short))
	if long > 24*short {
		t.Fatalf("64k-entry log took %v, 8k-entry log %v: ×%.1f for 8× the entries",
			long, short, float64(long)/float64(short))
	}
}

// TestApplyDeltaCompactOverflow lowers the stream limit so a delta pushes a
// compact graph's stream past it: the typed error must come back, not
// wrapped offsets.
func TestApplyDeltaCompactOverflow(t *testing.T) {
	g := fanOut(60) // 60 one-byte gaps out of vertex 0
	c := MustCompact(g)
	withStreamLimit(t, uint64(len(c.cOut))+2)
	d := &Delta{}
	d.AddEdge(1, 2)
	d.AddEdge(1, 3)
	if _, _, err := ApplyDelta(c, d); err != nil {
		t.Fatalf("a delta that fits the limit exactly: %v", err)
	}
	d.AddEdge(2, 3)
	_, _, err := ApplyDelta(c, d)
	var ov *CompactOverflowError
	if !errors.As(err, &ov) || ov.Direction != "out" || ov.Vertex != 2 || ov.Bytes != uint64(len(c.cOut))+3 {
		t.Fatalf("err = %v, want out-overflow at vertex 2 with %d bytes", err, len(c.cOut)+3)
	}
	if _, _, err := ApplyDelta(g, d); err != nil {
		t.Fatalf("the flat graph has no stream limit: %v", err)
	}
}

// fuzzReader hands out the fuzz input byte by byte; past the end it reads
// zeros, so every input is a complete case.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// FuzzApplyDelta drives the equivalence oracle from fuzz input: the bytes
// pick a small graph and a log over it.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 3, 0, 1, 2, 0, 1, 3, 1, 2, 0, 4, 0, 0, 1, 2, 1, 0, 1, 0, 2, 0, 1, 3})
	f.Add([]byte{3, 0, 0, 2, 0, 1, 0, 0, 1, 0, 3, 3, 1, 0, 0, 3, 2, 0, 3, 1, 0, 3})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &fuzzReader{b: b}
		m := &model{n: 1 + r.next()%8, directed: r.next()%2 == 0}
		weighted := r.next()%2 == 0
		for i := r.next() % 24; i > 0; i-- {
			w := 1.0
			if weighted {
				w = modelWeights[r.next()%len(modelWeights)]
			}
			m.add(VertexID(r.next()%m.n), VertexID(r.next()%m.n), w)
		}
		m.settle()
		// Where ApplyDeltas cuts the log into 1–4 logs: offsets taken modulo
		// the log's length + 1 once it is drawn.
		cuts := make([]int, r.next()%4)
		for i := range cuts {
			cuts[i] = r.next()
		}
		var d Delta
		n := m.n
		for len(r.b) > 0 && d.Len() < 32 {
			// One id past the end keeps out-of-range entries reachable.
			u, v := VertexID(r.next()%(n+1)), VertexID(r.next()%(n+1))
			switch r.next() % 4 {
			case 0:
				d.AddWeightedEdge(u, v, modelWeights[r.next()%len(modelWeights)])
			case 1:
				d.RemoveEdge(u, v)
			case 2:
				d.SetWeight(u, v, modelWeights[r.next()%len(modelWeights)])
			case 3:
				d.AddVertices(r.next() % 3) // 0 is an invalid count
				n += d.Muts[len(d.Muts)-1].Count
			}
		}
		after, ok := checkApplyDelta(t, m, d.Muts)
		for i := range cuts {
			cuts[i] %= d.Len() + 1
		}
		slices.Sort(cuts)
		logs, from := make([][]Mutation, 0, len(cuts)+1), 0
		for _, c := range cuts {
			logs, from = append(logs, d.Muts[from:c]), c
		}
		logs = append(logs, d.Muts[from:])
		for _, compact := range []bool{false, true} {
			boot := func() *Graph {
				g := m.build(compact)
				if m.directed {
					g.BuildReverse()
				}
				return g
			}
			label := fmt.Sprintf("compact=%v, cut at %v", compact, cuts)
			one := checkApplyDeltas(t, label, boot, m, logs)
			if (one != nil) != ok {
				t.Fatalf("%s: the cut logs apply = %v, the whole log = %v", label, one != nil, ok)
			}
			if ok && one.Fingerprint() != after.build(compact).Fingerprint() {
				t.Fatalf("%s: fingerprint %016x, the whole log's %016x", label, one.Fingerprint(), after.build(compact).Fingerprint())
			}
		}
	})
}
