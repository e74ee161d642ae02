package graph

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// arcsOf flattens g's out-adjacency into (u,v,w) triples for comparison.
func arcsOf(g *Graph) [][3]float64 {
	var out [][3]float64
	for u := 0; u < g.NumVertices(); u++ {
		adj := g.OutNeighbors(VertexID(u))
		ws := g.OutWeights(VertexID(u))
		for i, v := range adj {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			out = append(out, [3]float64{float64(u), float64(v), w})
		}
	}
	return out
}

func TestApplyDeltaDirected(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(2, 3, 4)
	g := b.Finalize()

	d := &Delta{}
	d.AddWeightedEdge(3, 0, 5)
	d.RemoveEdge(1, 2)
	d.SetWeight(2, 3, 7)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]float64{{0, 1, 2}, {2, 3, 7}, {3, 0, 5}}
	if got := arcsOf(ng); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutated arcs = %v, want %v", got, want)
	}
	wantChanges := []ArcChange{
		{Kind: ArcRemove, U: 1, V: 2, OldW: 3},
		{Kind: ArcReweight, U: 2, V: 3, OldW: 4, NewW: 7},
		{Kind: ArcAdd, U: 3, V: 0, NewW: 5},
	}
	if !reflect.DeepEqual(ad.Arcs, wantChanges) {
		t.Fatalf("arc changes = %v, want %v", ad.Arcs, wantChanges)
	}
	if got, want := ad.Touched(g.NumVertices()), []VertexID{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("touched = %v, want %v", got, want)
	}
	// The original graph is untouched.
	if got := arcsOf(g); !reflect.DeepEqual(got, [][3]float64{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}) {
		t.Fatalf("original graph mutated: %v", got)
	}
}

// TestApplyDeltaFingerprint is the mutate-then-fingerprint regression test:
// Fingerprint caches its hash, so a mutated graph must never inherit the
// source's — the digest ApplyDelta derives for it must describe the new
// structure and match a from-scratch build of the same edges.
func TestApplyDeltaFingerprint(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Finalize()
	oldFP := g.Fingerprint() // populate the cache before mutating

	d := &Delta{}
	d.AddEdge(2, 0)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if ad.OldFingerprint != oldFP {
		t.Fatalf("AppliedDelta.OldFingerprint = %016x, want %016x", ad.OldFingerprint, oldFP)
	}
	if ng.Fingerprint() == oldFP {
		t.Fatalf("mutated graph kept the stale fingerprint %016x", oldFP)
	}
	b2 := NewBuilder(3, true)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.AddEdge(2, 0)
	if want := b2.Finalize().Fingerprint(); ng.Fingerprint() != want {
		t.Fatalf("mutated fingerprint %016x != from-scratch build %016x", ng.Fingerprint(), want)
	}
	if g.Fingerprint() != oldFP {
		t.Fatalf("original graph's fingerprint changed")
	}
	// An empty delta copies the same structure, so the derived fingerprint
	// must agree with the original.
	same, _, err := ApplyDelta(g, &Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if same.Fingerprint() != oldFP {
		t.Fatalf("empty delta changed fingerprint: %016x != %016x", same.Fingerprint(), oldFP)
	}
}

func TestApplyDeltaUndirectedMirrors(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	g := b.Finalize()

	d := &Delta{}
	d.AddWeightedEdge(1, 2, 4)
	d.RemoveEdge(1, 0) // reversed orientation must still find the edge
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]float64{{1, 2, 4}, {2, 1, 4}}
	if got := arcsOf(ng); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutated arcs = %v, want %v", got, want)
	}
	if len(ad.Arcs) != 4 { // two removes + two adds, mirrored
		t.Fatalf("want 4 mirrored arc changes, got %v", ad.Arcs)
	}
	if !ng.HasReverse() {
		t.Fatal("undirected result must alias reverse adjacency")
	}
}

func TestApplyDeltaSelfLoop(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1)
	g := b.Finalize()
	d := &Delta{}
	d.AddEdge(1, 1)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	// Self-loops stay single-arc in undirected graphs, as in Builder.
	if got := arcsOf(ng); !reflect.DeepEqual(got, [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 1}}) {
		t.Fatalf("arcs = %v", got)
	}
	if len(ad.Arcs) != 1 {
		t.Fatalf("self-loop add should be one arc change, got %v", ad.Arcs)
	}
}

func TestApplyDeltaSequentialSemantics(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1)
	g := b.Finalize()

	// add then del: nothing survives, diff only removes the original.
	d := &Delta{}
	d.AddEdge(0, 1)
	d.RemoveEdge(0, 1)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(arcsOf(ng)) != 0 {
		t.Fatalf("add-then-del left arcs: %v", arcsOf(ng))
	}
	if !reflect.DeepEqual(ad.Arcs, []ArcChange{{Kind: ArcRemove, U: 0, V: 1, OldW: 1}}) {
		t.Fatalf("diff = %v", ad.Arcs)
	}

	// del then add: exactly the new edge, diff is remove+add.
	d = &Delta{}
	d.RemoveEdge(0, 1)
	d.AddWeightedEdge(0, 1, 9)
	ng, ad, err = ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := arcsOf(ng); !reflect.DeepEqual(got, [][3]float64{{0, 1, 9}}) {
		t.Fatalf("del-then-add arcs = %v", got)
	}
	if len(ad.Arcs) != 2 {
		t.Fatalf("diff = %v", ad.Arcs)
	}

	// set to the identical weight is a no-op in the diff.
	d = &Delta{}
	d.SetWeight(0, 1, 1)
	_, ad, err = ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Arcs) != 0 {
		t.Fatalf("no-op reweight produced diff %v", ad.Arcs)
	}
}

func TestApplyDeltaParallelArcs(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 1, 3)
	g := b.Finalize()

	// del clears every parallel arc.
	d := &Delta{}
	d.RemoveEdge(0, 1)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(arcsOf(ng)) != 0 || len(ad.Arcs) != 2 {
		t.Fatalf("parallel remove: arcs=%v diff=%v", arcsOf(ng), ad.Arcs)
	}

	// set rewrites every parallel arc.
	d = &Delta{}
	d.SetWeight(0, 1, 5)
	ng, _, err = ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := arcsOf(ng); !reflect.DeepEqual(got, [][3]float64{{0, 1, 5}, {0, 1, 5}}) {
		t.Fatalf("parallel set arcs = %v", got)
	}
}

func TestApplyDeltaAddVertices(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1)
	g := b.Finalize()
	d := &Delta{}
	d.AddVertices(2)
	d.AddEdge(1, 3)
	ng, ad, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumVertices() != 4 || ad.NewVertices != 2 {
		t.Fatalf("n=%d new=%d", ng.NumVertices(), ad.NewVertices)
	}
	if got := arcsOf(ng); !reflect.DeepEqual(got, [][3]float64{{0, 1, 1}, {1, 3, 1}}) {
		t.Fatalf("arcs = %v", got)
	}
	// New isolated vertices are part of the activation frontier.
	if got, want := ad.Touched(2), []VertexID{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("touched = %v, want %v", got, want)
	}
}

func TestApplyDeltaWeightPromotion(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1)
	g := b.Finalize()
	if g.Weighted() {
		t.Fatal("seed graph should be unweighted")
	}
	d := &Delta{}
	d.AddWeightedEdge(1, 0, 2.5)
	ng, _, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ng.Weighted() {
		t.Fatal("adding a non-unit weight must promote the graph to weighted")
	}
	if got := arcsOf(ng); !reflect.DeepEqual(got, [][3]float64{{0, 1, 1}, {1, 0, 2.5}}) {
		t.Fatalf("arcs = %v", got)
	}
}

func TestApplyDeltaPreservesReverse(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Finalize()
	g.BuildReverse()
	d := &Delta{}
	d.AddEdge(2, 0)
	ng, _, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !ng.HasReverse() {
		t.Fatal("reverse adjacency should carry over when the source had it")
	}
	if got := ng.InNeighbors(0); !reflect.DeepEqual(got, []VertexID{2}) {
		t.Fatalf("in-neighbors of 0 = %v", got)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	g := b.Finalize()
	big := maxVertices // a variable: the conversions below must not be constant
	cases := []struct {
		name string
		d    func() *Delta
		want string
	}{
		{"del missing", func() *Delta { d := &Delta{}; d.RemoveEdge(1, 2); return d }, "no such edge"},
		{"set missing", func() *Delta { d := &Delta{}; d.SetWeight(2, 0, 3); return d }, "no such edge"},
		{"del twice", func() *Delta { d := &Delta{}; d.RemoveEdge(0, 1); d.RemoveEdge(0, 1); return d }, "no such edge"},
		{"out of range", func() *Delta { d := &Delta{}; d.AddEdge(0, 7); return d }, "out of range"},
		{"bad addv", func() *Delta { d := &Delta{}; d.AddVertices(0); return d }, "positive count"},
		// Refused before anything is sized by the count: the first would
		// otherwise allocate 34 GB of offsets.
		{"addv past VertexID", func() *Delta { d := &Delta{}; d.AddVertices(int(big - 2)); return d }, "VertexID can address"},
		{"addv past VertexID in two entries", func() *Delta {
			d := &Delta{}
			d.AddVertices(int(big / 2))
			d.AddVertices(int(big / 2))
			return d
		}, "VertexID can address"},
		{"addv of MaxInt", func() *Delta { d := &Delta{}; d.AddVertices(math.MaxInt); return d }, "VertexID can address"},
	}
	for _, c := range cases {
		_, _, err := ApplyDelta(g, c.d())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestDeltaLogRoundTrip(t *testing.T) {
	d := &Delta{}
	d.AddEdge(0, 1)
	d.AddWeightedEdge(2, 3, 0.25)
	d.RemoveEdge(1, 0)
	d.SetWeight(2, 3, 1.75)
	d.AddVertices(4)
	var buf bytes.Buffer
	if err := WriteDeltaLog(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeltaLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestReadDeltaLogErrors(t *testing.T) {
	bad := []string{
		"frob 1 2",
		"add 1",
		"add a b",
		"add 1 2 x",
		"del 1",
		"set 1 2",
		"set 1 2 z",
		"addv",
		"addv -3",
		"addv x",
		"add 99999999999999999999 0",
	}
	for _, src := range bad {
		if _, err := ReadDeltaLog(strings.NewReader(src)); err == nil {
			t.Errorf("ReadDeltaLog(%q) succeeded, want error", src)
		}
	}
	d, err := ReadDeltaLog(strings.NewReader("# comment\n% also comment\n\n add 1 2 \n"))
	if err != nil || d.Len() != 1 {
		t.Fatalf("comment handling: %v %v", d, err)
	}
}

// FuzzDeltaLogDecode asserts the mutation-log decoder's contract on
// arbitrary input: it may reject, but must never panic, and anything it
// accepts must survive a write/re-read cycle to the same canonical text.
func FuzzDeltaLogDecode(f *testing.F) {
	f.Add("add 0 1\nadd 1 2 2.5\ndel 0 1\nset 1 2 7\naddv 3\n")
	f.Add("# comment\n% other comment\n\nadd 1 1\n")
	f.Add("add 0 1 NaN\nadd 0 1 +Inf\nadd 0 1 -0\n")
	f.Add("frob 1 2\n")
	f.Add("add 1\n")
	f.Add("addv -1\n")
	f.Add("")
	f.Add("add 0 1\r\ndel 0 1\r\naddv 2\r\n")
	f.Add("add 0 1\radd 1 2 2.5\rset 1 2 7\r")
	f.Add("add 0 1  \t\r\n\r\n% note\r\nadd 1 2\n")
	f.Add("\ufeffadd 0 1\r\naddv 1\r\n")
	f.Add("add 0 1\n\ufeffadd 1 2\n")
	f.Add("\r\r\r")
	f.Add("\r\n\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ReadDeltaLog(strings.NewReader(src))
		if err != nil {
			if d != nil {
				t.Fatal("ReadDeltaLog returned both a delta and an error")
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteDeltaLog(&buf, d); err != nil {
			t.Fatalf("write accepted delta: %v", err)
		}
		first := buf.String()
		d2, err := ReadDeltaLog(strings.NewReader(first))
		if err != nil {
			t.Fatalf("re-read written delta: %v\n%s", err, first)
		}
		var buf2 bytes.Buffer
		if err := WriteDeltaLog(&buf2, d2); err != nil {
			t.Fatal(err)
		}
		// Compare canonical text, not structs: NaN weights are legal and
		// defeat DeepEqual.
		if buf2.String() != first {
			t.Fatalf("canonical text not stable:\nfirst:\n%s\nsecond:\n%s", first, buf2.String())
		}
	})
}
