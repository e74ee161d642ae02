package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDirectedCSR(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Finalize()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.Directed() {
		t.Fatal("Directed = false, want true")
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want [1 2]", got)
	}
	if d := g.OutDegree(1); d != 0 {
		t.Fatalf("OutDegree(1) = %d, want 0", d)
	}
	if g.HasReverse() {
		t.Fatal("directed graph should not have reverse adjacency before BuildReverse")
	}
}

func TestBuilderUndirectedMirrors(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Finalize()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d, want 4", g.NumArcs())
	}
	if got := g.OutNeighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("OutNeighbors(1) = %v, want [0 2]", got)
	}
	if !g.HasReverse() {
		t.Fatal("undirected graph must always expose reverse adjacency")
	}
	if g.InDegree(1) != 2 {
		t.Fatalf("InDegree(1) = %d, want 2", g.InDegree(1))
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(2, true)
	b.SetDedup(true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Finalize()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range vertex")
		}
	}()
	NewBuilder(2, true).AddEdge(0, 5)
}

func TestBuildReverseDirected(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddWeightedEdge(0, 2, 5)
	b.AddWeightedEdge(1, 2, 7)
	b.AddWeightedEdge(2, 3, 9)
	g := b.Finalize()
	g.BuildReverse()
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("InNeighbors(2) = %v, want [0 1]", got)
	}
	ws := g.InWeights(2)
	if len(ws) != 2 || ws[0] != 5 || ws[1] != 7 {
		t.Fatalf("InWeights(2) = %v, want [5 7]", ws)
	}
	if g.InDegree(0) != 0 || g.InDegree(3) != 1 {
		t.Fatalf("InDegree(0,3) = %d,%d; want 0,1", g.InDegree(0), g.InDegree(3))
	}
	// Idempotent.
	g.BuildReverse()
	if g.InDegree(2) != 2 {
		t.Fatal("BuildReverse not idempotent")
	}
}

// Property: for any directed graph, sum of out-degrees equals sum of
// in-degrees equals the number of arcs, and every out-arc (u,v) appears as
// an in-arc at v.
func TestReverseIsExactTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(4 * n)
		b := NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Finalize()
		g.BuildReverse()
		sumOut, sumIn := 0, 0
		for u := 0; u < n; u++ {
			sumOut += g.OutDegree(VertexID(u))
			sumIn += g.InDegree(VertexID(u))
		}
		if sumOut != sumIn || sumOut != g.NumArcs() {
			return false
		}
		// Count (u,v) pairs both ways.
		fwd := map[[2]VertexID]int{}
		rev := map[[2]VertexID]int{}
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(VertexID(u)) {
				fwd[[2]VertexID{VertexID(u), v}]++
			}
			for _, v := range g.InNeighbors(VertexID(u)) {
				rev[[2]VertexID{v, VertexID(u)}]++
			}
		}
		if len(fwd) != len(rev) {
			return false
		}
		for k, c := range fwd {
			if rev[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	t.Run("rmat", func(t *testing.T) {
		g := RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
		if g.NumVertices() != 256 {
			t.Fatalf("|V| = %d, want 256", g.NumVertices())
		}
		if g.NumEdges() == 0 || g.NumEdges() > 4*256 {
			t.Fatalf("|E| = %d out of range", g.NumEdges())
		}
		// Deterministic.
		g2 := RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
		if g.NumEdges() != g2.NumEdges() {
			t.Fatal("RMAT not deterministic for fixed seed")
		}
	})
	t.Run("preferential-attachment", func(t *testing.T) {
		g := PreferentialAttachment(500, 3, 7)
		if g.NumVertices() != 500 {
			t.Fatalf("|V| = %d, want 500", g.NumVertices())
		}
		if _, comps := ConnectedComponents(g); comps != 1 {
			t.Fatalf("BA graph has %d components, want 1", comps)
		}
		if lo, _ := outDegreeRange(g); lo < 3 {
			t.Fatalf("min degree %d, want >= 3", lo)
		}
	})
	t.Run("erdos-renyi", func(t *testing.T) {
		g := ErdosRenyi(100, 300, true, 5)
		if g.NumEdges() != 300 {
			t.Fatalf("|E| = %d, want 300", g.NumEdges())
		}
	})
	t.Run("grid", func(t *testing.T) {
		g := Grid(5, 7, 10, 3)
		if g.NumVertices() != 35 {
			t.Fatalf("|V| = %d, want 35", g.NumVertices())
		}
		wantEdges := 5*6 + 4*7 // horizontal + vertical
		if g.NumEdges() != wantEdges {
			t.Fatalf("|E| = %d, want %d", g.NumEdges(), wantEdges)
		}
		if !g.Weighted() {
			t.Fatal("grid with maxW=10 should be weighted")
		}
	})
	t.Run("watts-strogatz", func(t *testing.T) {
		g := WattsStrogatz(200, 4, 0.1, 7)
		if g.NumVertices() != 200 {
			t.Fatalf("|V| = %d, want 200", g.NumVertices())
		}
		// The lattice contributes n·k/2 edges; rewiring preserves the count.
		if g.NumEdges() != 400 {
			t.Fatalf("|E| = %d, want 400", g.NumEdges())
		}
		if _, comps := ConnectedComponents(g); comps != 1 {
			t.Fatalf("components = %d, want 1 at beta=0.1", comps)
		}
		// beta=0 is the pure ring lattice: every degree is exactly k.
		ring := WattsStrogatz(50, 4, 0, 1)
		if lo, hi := outDegreeRange(ring); lo != 4 || hi != 4 {
			t.Fatalf("ring lattice degrees = [%d,%d], want [4,4]", lo, hi)
		}
		// Odd k is rounded up; k >= n is clamped.
		if g2 := WattsStrogatz(10, 3, 0, 2); g2.OutDegree(0) != 4 {
			t.Fatalf("odd-k degree = %d, want 4", g2.OutDegree(0))
		}
	})
	t.Run("star-path-cycle-complete", func(t *testing.T) {
		if g := Star(10, true); g.OutDegree(0) != 9 {
			t.Fatalf("star hub degree = %d, want 9", g.OutDegree(0))
		}
		if g := Path(10, false); g.NumEdges() != 9 {
			t.Fatalf("path |E| = %d, want 9", g.NumEdges())
		}
		if g := Cycle(10, true); g.NumEdges() != 10 {
			t.Fatalf("cycle |E| = %d, want 10", g.NumEdges())
		}
		if g := Complete(5, false); g.NumEdges() != 10 {
			t.Fatalf("K5 |E| = %d, want 10", g.NumEdges())
		}
	})
}

func TestWithRandomWeights(t *testing.T) {
	g := Cycle(10, false)
	wg := WithRandomWeights(g, 1, 5, 9)
	if !wg.Weighted() {
		t.Fatal("expected weighted graph")
	}
	if wg.NumEdges() != g.NumEdges() {
		t.Fatalf("|E| changed: %d != %d", wg.NumEdges(), g.NumEdges())
	}
	// Mirrored arcs must carry the same weight.
	for u := 0; u < wg.NumVertices(); u++ {
		adj := wg.OutNeighbors(VertexID(u))
		ws := wg.OutWeights(VertexID(u))
		for i, v := range adj {
			back := wg.OutNeighbors(v)
			bws := wg.OutWeights(v)
			found := false
			for j, x := range back {
				if x == VertexID(u) && bws[j] == ws[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) weight %g not mirrored", u, v, ws[i])
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := RMAT(6, 4, 0.57, 0.19, 0.19, true, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip |E| = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	for u := 0; u < g.NumVertices() && u < g2.NumVertices(); u++ {
		a, b := g.OutNeighbors(VertexID(u)), g2.OutNeighbors(VertexID(u))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch: %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency mismatch at %d", u, i)
			}
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	g := Grid(4, 4, 9, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("weighted round trip mismatch: weighted=%v |E|=%d want %d",
			g2.Weighted(), g2.NumEdges(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"0 1 x\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), true); err == nil {
			t.Fatalf("ReadEdgeList(%q) succeeded, want error", c)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadEdgeList(strings.NewReader("# c\n\n% c2\n0 1\n"), true)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("comment handling failed: %v, %v", g, err)
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# only comments\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty input produced %v", g)
	}
}

func TestConnectedComponentsOracle(t *testing.T) {
	// Two triangles plus an isolated vertex.
	b := NewBuilder(7, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g := b.Finalize()
	labels, comps := ConnectedComponents(g)
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
	want := []VertexID{0, 0, 0, 3, 3, 3, 6}
	for i, l := range labels {
		if l != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, l, want[i])
		}
	}
}

func TestConnectedComponentsDirectedTreatsAsUndirected(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(1, 0) // only a back edge; undirected reachability must still join them
	b.AddEdge(2, 3)
	g := b.Finalize()
	_, comps := ConnectedComponents(g)
	if comps != 2 {
		t.Fatalf("components = %d, want 2", comps)
	}
}

func TestDatasets(t *testing.T) {
	for _, d := range Datasets() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Build()
			if g.Directed() != d.Directed {
				t.Fatalf("directedness = %v, want %v", g.Directed(), d.Directed)
			}
			if g.NumVertices() < 1000 {
				t.Fatalf("|V| = %d, unexpectedly small", g.NumVertices())
			}
			if !g.HasReverse() {
				t.Fatal("datasets must expose reverse adjacency for pull-based programs")
			}
			_, hi := outDegreeRange(g)
			if avg := g.NumArcs() / g.NumVertices(); hi < 3*avg {
				t.Fatalf("degree distribution not skewed: max out-degree %d, average %d", hi, avg)
			}
		})
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("DatasetByName(nope) should fail")
	}
	if d, err := DatasetByName("wikipedia-s"); err != nil || d.Original != "Wikipedia" {
		t.Fatalf("DatasetByName(wikipedia-s) = %v, %v", d, err)
	}
}

// outDegreeRange returns the least and the greatest out-degree of g's
// vertices.
func outDegreeRange(g *Graph) (lo, hi int) {
	lo = g.OutDegree(0)
	for u := 0; u < g.NumVertices(); u++ {
		d := g.OutDegree(VertexID(u))
		lo, hi = min(lo, d), max(hi, d)
	}
	return lo, hi
}

func TestGraphString(t *testing.T) {
	g := Path(3, true)
	if s := g.String(); !strings.Contains(s, "directed") || !strings.Contains(s, "|V|=3") {
		t.Fatalf("String() = %q", s)
	}
}
