package vm

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

var allModes = []core.Mode{core.Incremental, core.Baseline, core.MemoTable}

func compileT(t *testing.T, name string, mode core.Mode) *core.Program {
	t.Helper()
	p, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
	if err != nil {
		t.Fatalf("compile %s %v: %v", name, mode, err)
	}
	return p
}

func mustCompile(name string, mode core.Mode) *core.Program {
	p, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
	if err != nil {
		panic(err)
	}
	return p
}

func runT(t *testing.T, name string, mode core.Mode, g *graph.Graph, opts RunOptions) *Result {
	t.Helper()
	res, err := Run(compileT(t, name, mode), g, opts)
	if err != nil {
		t.Fatalf("run %s %v: %v", name, mode, err)
	}
	if res.NonMonotoneSends != 0 {
		t.Fatalf("run %s %v: %d non-monotone Δ-messages", name, mode, res.NonMonotoneSends)
	}
	return res
}

func directedTestGraph() *graph.Graph {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
	g.BuildReverse()
	return g
}

// TestNaNCycleSettles: a NaN that reaches a cycle settles at ε = 0 as it
// does under ε > 0 — |NaN − NaN| is NaN, never above ε, so a vertex that
// stays NaN is unchanged — where NaN != NaN woke it at every superstep
// until the iteration limit, in every mode.
func TestNaNCycleSettles(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, math.NaN())
	b.AddWeightedEdge(2, 0, 1)
	g := b.Finalize()
	opts := RunOptions{Workers: 2, Combine: true, Params: map[string]float64{"src": 0}}
	for _, mode := range allModes {
		var runs [2]*Result
		for i, eps := range []float64{0, 1e-9} {
			prog, err := core.Compile(programs.MustSource("sssp"), core.Options{Mode: mode, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if runs[i], err = Run(prog, g, opts); err != nil {
				t.Fatalf("%v ε=%g: %v", mode, eps, err)
			}
		}
		got, err := runs[0].FieldVector("dist")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runs[1].FieldVector("dist")
		for u := range got {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Errorf("%v: dist[%d] = %g at ε = 0, %g at ε = 1e-9", mode, u, got[u], want[u])
			}
		}
		if !(got[0] == 0 && got[1] == 1 && math.IsNaN(got[2])) {
			t.Errorf("%v: dist = %v, want [0 1 NaN]", mode, got)
		}
		if s0, s1 := runs[0].Stats.Supersteps, runs[1].Stats.Supersteps; s0 != s1 {
			t.Errorf("%v: %d supersteps at ε = 0, %d at ε = 1e-9", mode, s0, s1)
		}
	}
}

// ---------------------------------------------------------------------------
// The extension corpus; the paper's own programs' agreement with their
// references is FuzzBitIdentity's layer 3.

func TestReachability(t *testing.T) {
	// 0 → 1 → 2, 3 isolated.
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Finalize()
	for _, mode := range allModes {
		res := runT(t, "reach", mode, g, RunOptions{Workers: 2})
		wants := []float64{1, 1, 1, 0}
		for u, w := range wants {
			if got := res.Field("reach", graph.VertexID(u)); got != w {
				t.Fatalf("%v: reach[%d] = %g, want %g", mode, u, got, w)
			}
		}
	}
}

func TestReachabilityParamOverride(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(1, 2)
	g := b.Finalize()
	res := runT(t, "reach", core.Incremental, g, RunOptions{Params: map[string]float64{"src": 1}})
	if res.Field("reach", 0) != 0 || res.Field("reach", 1) != 1 || res.Field("reach", 2) != 1 {
		t.Fatalf("reach = %v %v %v", res.Field("reach", 0), res.Field("reach", 1), res.Field("reach", 2))
	}
}

func TestMaxValPropagation(t *testing.T) {
	g := graph.PreferentialAttachment(200, 2, 3)
	for _, mode := range allModes {
		res := runT(t, "maxval", mode, g, RunOptions{Workers: 3})
		for u := 0; u < g.NumVertices(); u++ {
			if got := res.Field("best", graph.VertexID(u)); got != 199 {
				t.Fatalf("%v: best[%d] = %g, want 199", mode, u, got)
			}
		}
	}
}

func TestAllReachAndAggregation(t *testing.T) {
	// 0 → 1, 2 → 1: ok(1) becomes true only when both in-neighbours are ok.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Finalize()
	for _, mode := range allModes {
		res := runT(t, "allreach", mode, g, RunOptions{})
		// ok(0)=true from init; ok(2)=false forever (&&-identity over no
		// in-neighbours is true, but ok(2) = false || true = true!).
		// Vertex 2 has no in-neighbours: && over ∅ = true ⇒ ok(2) true
		// after one iteration; then ok(1) = ok(0) && ok(2) = true.
		for u := 0; u < 3; u++ {
			if got := res.Field("ok", graph.VertexID(u)); got != 1 {
				t.Fatalf("%v: ok[%d] = %g, want 1", mode, u, got)
			}
		}
	}
}

func TestDegreeSumStep(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Finalize()
	g.BuildReverse()
	for _, mode := range allModes {
		res := runT(t, "degreesum", mode, g, RunOptions{})
		// total(2) = outdeg(0) + outdeg(1) = 2; total(3) = outdeg(2) = 1.
		wants := []float64{0, 0, 2, 1}
		for u, w := range wants {
			if got := res.Field("total", graph.VertexID(u)); got != w {
				t.Fatalf("%v: total[%d] = %g, want %g", mode, u, got, w)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Cross-cutting behaviours.

func TestEpsilonSlopReducesMessagesFurther(t *testing.T) {
	g := directedTestGraph()
	exact := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 4})
	prog, err := core.Compile(programs.MustSource("pagerank"), core.Options{Mode: core.Incremental, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, g, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesSent >= exact.Stats.MessagesSent {
		t.Fatalf("ε=1e-6 sent %d messages, exact sent %d — slop should reduce further",
			res.Stats.MessagesSent, exact.Stats.MessagesSent)
	}
	// Values must stay within a graph-diameter-scaled multiple of ε.
	want := algorithms.PageRankOracle(g, 30)
	for u := range want {
		if got := res.Field("vl", graph.VertexID(u)); math.Abs(got-want[u]) > 1e-3 {
			t.Fatalf("ε run diverged: vl[%d] = %g, want %g", u, got, want[u])
		}
	}
	t.Logf("epsilon: exact=%d msgs, eps=%d msgs", exact.Stats.MessagesSent, res.Stats.MessagesSent)
}

func TestMemoTableStateAndMessageOverhead(t *testing.T) {
	g := directedTestGraph()
	inc := compileT(t, "pagerank", core.Incremental)
	tbl := compileT(t, "pagerank", core.MemoTable)
	if MessageBytes(tbl) <= MessageBytes(inc) {
		t.Fatalf("table message bytes %d <= incremental %d — id tag missing", MessageBytes(tbl), MessageBytes(inc))
	}
	m, err := NewMachine(tbl, g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(RunOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if m.StateBytes() <= float64(tbl.Layout.ByteSize()) {
		t.Fatalf("table state %v not larger than layout %d — lookup tables unaccounted",
			m.StateBytes(), tbl.Layout.ByteSize())
	}
}

func TestRunErrors(t *testing.T) {
	t.Run("neighbors-on-directed", func(t *testing.T) {
		g := graph.Path(4, true)
		if _, err := Run(compileT(t, "cc", core.Incremental), g, RunOptions{}); err == nil {
			t.Fatal("cc on a directed graph should fail (#neighbors)")
		}
	})
	t.Run("unknown-param", func(t *testing.T) {
		g := graph.Path(4, true)
		if _, err := Run(compileT(t, "sssp", core.Incremental), g, RunOptions{Params: map[string]float64{"nope": 1}}); err == nil {
			t.Fatal("unknown param should fail")
		}
	})
	t.Run("run-twice", func(t *testing.T) {
		g := graph.Path(4, true)
		m, err := NewMachine(compileT(t, "sssp", core.Incremental), g, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(RunOptions{}); err == nil {
			t.Fatal("second Run should fail (engine is single-use)")
		}
	})
}

func TestNonTerminatingUntilFails(t *testing.T) {
	src := `
init { local x : float = 1.0 };
iter i {
  let s : float = + [ u.x | u <- #in ] in
  x = x
} until { false }`
	prog, err := core.Compile(src, core.Options{Mode: core.Incremental, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(4, true)
	if _, err := Run(prog, g, RunOptions{}); err == nil {
		t.Fatal("until{false} should fail, not loop forever")
	}
}

func TestIterationLimitEnforced(t *testing.T) {
	src := `
init { local x : float = 1.0 };
iter i {
  x = x + 1.0;
  let s : float = + [ u.x | u <- #in ] in
  x = x + s * 0.0001
} until { false }`
	prog, err := core.Compile(src, core.Options{Mode: core.Baseline, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Cycle(4, true)
	if _, err := Run(prog, g, RunOptions{}); err == nil {
		t.Fatal("iteration limit should surface as an error")
	}
}

func TestBFSHopCounts(t *testing.T) {
	// 0 → 1 → 2 → 3 and a shortcut 0 → 2.
	b := graph.NewBuilder(5, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 2)
	g := b.Finalize()
	for _, mode := range allModes {
		res := runT(t, "bfs", mode, g, RunOptions{})
		wants := []float64{0, 1, 1, 2, math.Inf(1)}
		for u, w := range wants {
			got := res.Field("hop", graph.VertexID(u))
			if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
				t.Fatalf("%v: hop[%d] = %g, want %g", mode, u, got, w)
			}
		}
	}
}

func TestStepPhaseOnlyRunsOnce(t *testing.T) {
	g := graph.Path(3, true)
	g.BuildReverse()
	res := runT(t, "degreesum", core.Incremental, g, RunOptions{})
	if res.Iterations[0] != 1 {
		t.Fatalf("step phase ran %d body supersteps, want 1", res.Iterations[0])
	}
}

// An empty graph is a finished run like any other: no error, and a terminal
// snapshot that encodes, decodes and seeds the next run.
func TestRunEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, true).Finalize()
	for _, name := range []string{"sssp", "pagerank"} {
		for _, mode := range allModes {
			prog := compileT(t, name, mode)
			res, err := Run(prog, g, RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			snap := res.Snapshot()
			if snap == nil || !snap.Done || snap.NumVertices != 0 {
				t.Fatalf("%s %v: terminal snapshot = %+v, want Done over 0 vertices", name, mode, snap)
			}
			back, _, err := pregel.DecodeSnapshot(snap.AppendTo(nil))
			if err != nil {
				t.Fatalf("%s %v: snapshot round trip: %v", name, mode, err)
			}
			if _, err := SeedFromSnapshot(prog, g, RunOptions{Workers: 1}, back); err != nil {
				t.Fatalf("%s %v: seeding from the empty snapshot: %v", name, mode, err)
			}
		}
	}
}
