package graph

import (
	"math"
	"sync"
	"testing"
)

// compactCorpus builds a spread of graphs exercising every structural
// feature the compact encoding has to preserve: directed/undirected,
// weighted/unweighted, parallel arcs, self-loops, isolated vertices,
// heavy-tailed degrees.
func compactCorpus(t *testing.T) map[string]*Graph {
	t.Helper()
	withParallel := func(directed bool) *Graph {
		b := NewBuilder(8, directed)
		b.AddEdge(0, 3)
		b.AddEdge(0, 3) // parallel arc
		b.AddEdge(0, 0) // self loop
		b.AddWeightedEdge(1, 2, 2.5)
		b.AddWeightedEdge(1, 2, 7.25) // parallel, different weight
		b.AddEdge(5, 1)
		b.AddEdge(7, 0)
		return b.Finalize()
	}
	return map[string]*Graph{
		"rmat-directed":      RMAT(9, 8, 0.57, 0.19, 0.19, true, 42),
		"rmat-undirected":    RMAT(8, 6, 0.57, 0.19, 0.19, false, 7),
		"grid-weighted":      Grid(17, 23, 9, 3),
		"star-directed":      Star(64, true),
		"path-undirected":    Path(33, false),
		"parallel-directed":  withParallel(true),
		"parallel-undirect":  withParallel(false),
		"pa-undirected":      PreferentialAttachment(200, 3, 11),
		"er-directed-weight": WithRandomWeights(ErdosRenyi(120, 700, true, 5), 1, 10, 6),
		"empty":              NewBuilder(0, true).Finalize(),
		"isolated":           NewBuilder(5, false).Finalize(),
	}
}

func TestCompactAccessorEquivalence(t *testing.T) {
	for name, g := range compactCorpus(t) {
		t.Run(name, func(t *testing.T) {
			c := MustCompact(g)
			if !c.IsCompact() && g.NumArcs() >= 0 {
				t.Fatalf("Compact returned non-compact graph")
			}
			if MustCompact(c) != c {
				t.Fatalf("Compact of a compact graph must return it unchanged")
			}
			if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() ||
				c.NumArcs() != g.NumArcs() || c.Directed() != g.Directed() ||
				c.Weighted() != g.Weighted() {
				t.Fatalf("summary accessors disagree: %v vs %v", c, g)
			}
			g.BuildReverse()
			c2 := MustCompact(g) // compact with reverse already present
			for _, cc := range []*Graph{c, c2} {
				cc.BuildReverse()
				for u := 0; u < g.NumVertices(); u++ {
					id := VertexID(u)
					if cc.OutDegree(id) != g.OutDegree(id) || cc.InDegree(id) != g.InDegree(id) {
						t.Fatalf("vertex %d: degree mismatch", u)
					}
					checkSame(t, "out", g.OutNeighbors(id), cc.OutNeighbors(id), g.OutWeights(id), cc.OutWeights(id))
					checkSame(t, "in", g.InNeighbors(id), cc.InNeighbors(id), g.InWeights(id), cc.InWeights(id))
					checkIter(t, cc.OutArcs(id), g.OutNeighbors(id), g.OutWeights(id))
					checkIter(t, cc.InArcs(id), g.InNeighbors(id), g.InWeights(id))
				}
				if cc.Fingerprint() != g.Fingerprint() {
					t.Fatalf("fingerprint not representation-independent: %x vs %x",
						cc.Fingerprint(), g.Fingerprint())
				}
			}
		})
	}
}

func checkSame(t *testing.T, dir string, want, got []VertexID, wantW, gotW []float64) {
	t.Helper()
	if len(want) != len(got) || len(wantW) != len(gotW) {
		t.Fatalf("%s: length mismatch: %v vs %v", dir, want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: neighbor %d: %d != %d", dir, i, got[i], want[i])
		}
	}
	for i := range wantW {
		if math.Float64bits(wantW[i]) != math.Float64bits(gotW[i]) {
			t.Fatalf("%s: weight %d: %g != %g", dir, i, gotW[i], wantW[i])
		}
	}
}

func checkIter(t *testing.T, it ArcIter, adj []VertexID, ws []float64) {
	t.Helper()
	for i, v := range adj {
		if !it.Next() {
			t.Fatalf("iterator ended early at %d/%d", i, len(adj))
		}
		if it.To() != v {
			t.Fatalf("iterator arc %d: %d != %d", i, it.To(), v)
		}
		w := 1.0
		if ws != nil {
			w = ws[i]
		}
		if math.Float64bits(it.Weight()) != math.Float64bits(w) {
			t.Fatalf("iterator weight %d: %g != %g", i, it.Weight(), w)
		}
	}
	if it.Next() {
		t.Fatalf("iterator did not end after %d arcs", len(adj))
	}
}

func TestZeroArcIterIsEmpty(t *testing.T) {
	var it ArcIter
	if it.Next() {
		t.Fatal("zero ArcIter must be empty")
	}
}

func TestCompactLazyReverse(t *testing.T) {
	g := RMAT(9, 8, 0.57, 0.19, 0.19, true, 1)
	c := MustCompact(g)
	if c.HasReverse() {
		t.Fatal("fresh compact directed graph must not have a reverse")
	}
	before := c.ArcBytes()
	c.BuildReverse()
	if !c.HasReverse() {
		t.Fatal("BuildReverse must make the reverse available")
	}
	if c.ArcBytes() != before {
		t.Fatal("BuildReverse on a compact graph must not materialize anything")
	}
	g.BuildReverse()
	// First in-side access materializes, and results match the flat CSR.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < g.NumVertices(); u++ {
				it := c.InArcs(VertexID(u))
				k := 0
				for it.Next() {
					k++
				}
				if k != g.InDegree(VertexID(u)) {
					t.Errorf("vertex %d: in-degree %d != %d", u, k, g.InDegree(VertexID(u)))
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.ArcBytes() <= before {
		t.Fatal("materialized reverse must be accounted by ArcBytes")
	}
	for u := 0; u < g.NumVertices(); u++ {
		checkSame(t, "in", g.InNeighbors(VertexID(u)), c.InNeighbors(VertexID(u)), nil, nil)
	}
}

func TestCompactArcBytesSmaller(t *testing.T) {
	g := RMAT(12, 16, 0.57, 0.19, 0.19, true, 99)
	c := MustCompact(g)
	fb, cb := g.ArcBytes(), c.ArcBytes()
	if cb >= fb {
		t.Fatalf("compact ArcBytes %d not smaller than flat %d", cb, fb)
	}
	t.Logf("flat=%d compact=%d ratio=%.2f", fb, cb, float64(fb)/float64(cb))
}

func TestCompactApplyDeltaPreservesRepr(t *testing.T) {
	g := RMAT(8, 4, 0.57, 0.19, 0.19, true, 17)
	g.BuildReverse()
	c := MustCompact(RMAT(8, 4, 0.57, 0.19, 0.19, true, 17))
	c.BuildReverse() // deferred
	d := &Delta{}
	d.AddVertices(2)
	d.AddWeightedEdge(3, VertexID(g.NumVertices()), 2.5)
	d.AddEdge(1, 2)
	if g.OutDegree(5) > 0 {
		d.RemoveEdge(5, g.OutNeighbors(5)[0])
	}
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	nc, ac, err := ApplyDelta(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if !nc.IsCompact() {
		t.Fatal("ApplyDelta on a compact graph must return a compact graph")
	}
	if ng.IsCompact() {
		t.Fatal("ApplyDelta on a flat graph must return a flat graph")
	}
	if !nc.HasReverse() {
		t.Fatal("reverse availability must be preserved through ApplyDelta")
	}
	if ad.OldFingerprint != ac.OldFingerprint {
		t.Fatal("OldFingerprint must be representation-independent")
	}
	if len(ad.Arcs) != len(ac.Arcs) {
		t.Fatalf("diff length mismatch: %d vs %d", len(ad.Arcs), len(ac.Arcs))
	}
	for i := range ad.Arcs {
		if ad.Arcs[i] != ac.Arcs[i] {
			t.Fatalf("diff entry %d mismatch: %+v vs %+v", i, ad.Arcs[i], ac.Arcs[i])
		}
	}
	if ng.Fingerprint() != nc.Fingerprint() {
		t.Fatal("mutated graphs must fingerprint identically across representations")
	}
}

func TestBuilderSetCompact(t *testing.T) {
	b := NewBuilder(4, false)
	b.SetCompact(true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddEdge(2, 3)
	g := b.Finalize()
	if !g.IsCompact() {
		t.Fatal("SetCompact(true) must produce a compact graph")
	}
	if !g.HasReverse() {
		t.Fatal("undirected compact graph must have its reverse aliased")
	}
	checkSame(t, "out", []VertexID{1}, g.OutNeighbors(0), []float64{2}, g.OutWeights(0))
	checkSame(t, "in", []VertexID{0}, g.InNeighbors(1), []float64{2}, g.InWeights(1))
}

func TestCompactReprStrings(t *testing.T) {
	g := Path(4, true)
	if g.Repr() != "flat" {
		t.Fatalf("flat Repr = %q", g.Repr())
	}
	c := MustCompact(g)
	if c.Repr() != "compact" {
		t.Fatalf("compact Repr = %q", c.Repr())
	}
	if g.Mapped() || c.Mapped() {
		t.Fatal("heap graphs must not report Mapped")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close on heap graph: %v", err)
	}
}

func TestUvarintLen(t *testing.T) {
	cases := map[uint32]int{0: 1, 1: 1, 127: 1, 128: 2, 16383: 2, 16384: 3, 1 << 28: 5, math.MaxUint32: 5}
	for x, want := range cases {
		if got := uvarintLen(x); got != want {
			t.Fatalf("uvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
}
