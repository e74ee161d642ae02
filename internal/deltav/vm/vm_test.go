package vm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func directedTestGraph() *graph.Graph {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
	g.BuildReverse()
	return g
}

// ---------------------------------------------------------------------------
// PageRank: all three modes must agree with the sequential oracle, and the
// incremental mode must send strictly fewer messages than the baseline.

func TestPageRankAllModesMatchOracle(t *testing.T) {
	g := directedTestGraph()
	want := algorithms.PageRankOracle(g, 30)
	msgs := map[core.Mode]int64{}
	for _, mode := range allModes {
		res := runT(t, "pagerank", mode, g, RunOptions{Workers: 4})
		for u := range want {
			got := res.Field("vl", graph.VertexID(u))
			if !almostEqual(got, want[u], 1e-9) {
				t.Fatalf("%v: vl[%d] = %g, want %g", mode, u, got, want[u])
			}
		}
		msgs[mode] = res.Stats.MessagesSent
	}
	if msgs[core.Incremental] >= msgs[core.Baseline] {
		t.Fatalf("incremental sent %d messages, baseline %d — no reduction", msgs[core.Incremental], msgs[core.Baseline])
	}
	t.Logf("pagerank messages: dV=%d dV*=%d table=%d (reduction %.2fx)",
		msgs[core.Incremental], msgs[core.Baseline], msgs[core.MemoTable],
		float64(msgs[core.Baseline])/float64(msgs[core.Incremental]))
}

func TestPageRankMatchesHandwritten(t *testing.T) {
	g := directedTestGraph()
	e, _, err := algorithms.RunPageRank(g, 30, algorithms.RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 4})
	for u := 0; u < g.NumVertices(); u++ {
		if !almostEqual(res.Field("vl", graph.VertexID(u)), e.Value(graph.VertexID(u)).PR, 1e-9) {
			t.Fatalf("vl[%d] = %g, handwritten %g", u,
				res.Field("vl", graph.VertexID(u)), e.Value(graph.VertexID(u)).PR)
		}
	}
}

// ---------------------------------------------------------------------------
// SSSP: modes agree with Dijkstra; ΔV and ΔV★ send the exact same number
// of messages (the paper's §7.2 claim for pre-incrementalized algorithms).

func TestSSSPAllModesMatchDijkstra(t *testing.T) {
	g := graph.Grid(12, 15, 9, 3)
	want := algorithms.SSSPOracle(g, 5)
	msgs := map[core.Mode]int64{}
	for _, mode := range allModes {
		res := runT(t, "sssp", mode, g, RunOptions{Workers: 4, Params: map[string]float64{"src": 5}})
		for u := range want {
			got := res.Field("dist", graph.VertexID(u))
			if !almostEqual(got, want[u], 1e-12) {
				t.Fatalf("%v: dist[%d] = %g, want %g", mode, u, got, want[u])
			}
		}
		msgs[mode] = res.Stats.MessagesSent
	}
	if msgs[core.Incremental] != msgs[core.Baseline] {
		t.Fatalf("SSSP: dV sent %d, dV* sent %d — paper reports exactly equal", msgs[core.Incremental], msgs[core.Baseline])
	}
}

func TestSSSPDirectedWithInfinities(t *testing.T) {
	b := graph.NewBuilder(5, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(0, 2, 10)
	// vertices 3,4 unreachable
	g := b.Finalize()
	res := runT(t, "sssp", core.Incremental, g, RunOptions{Workers: 2})
	wants := []float64{0, 2, 5, math.Inf(1), math.Inf(1)}
	for u, w := range wants {
		if got := res.Field("dist", graph.VertexID(u)); got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
			t.Fatalf("dist[%d] = %g, want %g", u, got, w)
		}
	}
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
// CC: modes agree with the DFS oracle; ΔV ≡ ΔV★ in messages.

func TestCCAllModesMatchOracle(t *testing.T) {
	g := graph.PreferentialAttachment(500, 3, 7)
	want, _ := graph.ConnectedComponents(g)
	msgs := map[core.Mode]int64{}
	for _, mode := range allModes {
		res := runT(t, "cc", mode, g, RunOptions{Workers: 4})
		for u := range want {
			if got := res.Field("cid", graph.VertexID(u)); got != float64(want[u]) {
				t.Fatalf("%v: cid[%d] = %g, want %d", mode, u, got, want[u])
			}
		}
		msgs[mode] = res.Stats.MessagesSent
	}
	if msgs[core.Incremental] != msgs[core.Baseline] {
		t.Fatalf("CC: dV sent %d, dV* sent %d — paper reports exactly equal", msgs[core.Incremental], msgs[core.Baseline])
	}
}

// ---------------------------------------------------------------------------
// HITS: modes agree with the oracle; incremental reduces messages.

func TestHITSAllModesMatchOracle(t *testing.T) {
	g := directedTestGraph()
	wantHub, wantAuth := algorithms.HITSOracle(g, 7)
	msgs := map[core.Mode]int64{}
	for _, mode := range allModes {
		res := runT(t, "hits", mode, g, RunOptions{Workers: 4})
		for u := range wantHub {
			gh := res.Field("hub", graph.VertexID(u))
			ga := res.Field("auth", graph.VertexID(u))
			if !almostEqual(gh, wantHub[u], 1e-9) || !almostEqual(ga, wantAuth[u], 1e-9) {
				t.Fatalf("%v: hits[%d] = (%g,%g), want (%g,%g)", mode, u, gh, ga, wantHub[u], wantAuth[u])
			}
		}
		msgs[mode] = res.Stats.MessagesSent
	}
	if msgs[core.Incremental] >= msgs[core.Baseline] {
		t.Fatalf("HITS: incremental sent %d, baseline %d — no reduction", msgs[core.Incremental], msgs[core.Baseline])
	}
}

// ---------------------------------------------------------------------------
// Extension corpus.

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

// prodOracle mirrors prod.dv sequentially.
func prodOracle(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	w := make([]float64, n)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		if i == 0 {
			w[i] = 0
		} else {
			w[i] = 1 + 1/(1+float64(i))
		}
		p[i] = 1
	}
	for k := 1; k <= iters; k++ {
		nw := append([]float64(nil), w...)
		np := make([]float64, n)
		for u := 0; u < n; u++ {
			prod := 1.0
			for _, v := range g.InNeighbors(graph.VertexID(u)) {
				prod *= w[v]
			}
			np[u] = prod
			if u == 0 {
				if k >= 3 {
					nw[u] = 2.0
				} else {
					nw[u] = 0.0
				}
			}
		}
		w, p = nw, np
	}
	return p
}

func TestProductWithNullaryTransitions(t *testing.T) {
	// Vertex 0 feeds several vertices; its weight crosses 0 → 2.0 at k=3,
	// exercising nullary and prev-nullary tags (Eq. 9).
	b := graph.NewBuilder(6, true)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	b.AddEdge(1, 5)
	g := b.Finalize()
	g.BuildReverse()
	want := prodOracle(g, 6)
	for _, mode := range allModes {
		res := runT(t, "prod", mode, g, RunOptions{Workers: 2})
		for u := range want {
			if got := res.Field("p", graph.VertexID(u)); !almostEqual(got, want[u], 1e-9) {
				t.Fatalf("%v: p[%d] = %g, want %g", mode, u, got, want[u])
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

func TestTwoPhaseProgram(t *testing.T) {
	// Phase 1: s = Σ in-neighbour ids. Phase 2: max-propagate s along
	// edges for 5 iterations.
	g := graph.RMAT(6, 3, 0.5, 0.2, 0.2, true, 13)
	g.BuildReverse()
	var ref []float64
	for _, mode := range allModes {
		res := runT(t, "twophase", mode, g, RunOptions{Workers: 3})
		got, err := res.FieldVector("t")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for u := range got {
			if !almostEqual(got[u], ref[u], 1e-9) {
				t.Fatalf("%v: t[%d] = %g, want %g", mode, u, got[u], ref[u])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Cross-cutting behaviours.

func TestSchedulersAndWorkersEquivalent(t *testing.T) {
	g := directedTestGraph()
	base := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 1})
	for _, sched := range []pregel.Scheduler{pregel.ScanAll, pregel.WorkQueue} {
		for _, workers := range []int{2, 7} {
			res := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: workers, Scheduler: sched})
			// Message-application order varies with the worker count, so
			// float sums differ in the last bits and exact-equality dirty
			// checks may flip on a handful of vertices. Counts must agree
			// to within a small fraction; values to float tolerance.
			diff := res.Stats.MessagesSent - base.Stats.MessagesSent
			if diff < 0 {
				diff = -diff
			}
			if diff*1000 > base.Stats.MessagesSent {
				t.Fatalf("sched=%v w=%d: messages %d vs %d (>0.1%% apart)",
					sched, workers, res.Stats.MessagesSent, base.Stats.MessagesSent)
			}
			for u := 0; u < g.NumVertices(); u += 17 {
				a := res.Field("vl", graph.VertexID(u))
				b := base.Field("vl", graph.VertexID(u))
				if !almostEqual(a, b, 1e-9) {
					t.Fatalf("sched=%v w=%d: vl[%d] = %g, want %g", sched, workers, u, a, b)
				}
			}
		}
	}
	// For an order-insensitive (idempotent) program the counts are exact.
	ssspBase := runT(t, "sssp", core.Incremental, g, RunOptions{Workers: 1})
	for _, workers := range []int{2, 7} {
		res := runT(t, "sssp", core.Incremental, g, RunOptions{Workers: workers})
		if res.Stats.MessagesSent != ssspBase.Stats.MessagesSent {
			t.Fatalf("sssp w=%d: messages %d != %d", workers, res.Stats.MessagesSent, ssspBase.Stats.MessagesSent)
		}
	}
}

func TestCombinerPreservesResults(t *testing.T) {
	g := directedTestGraph()
	plain := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 4})
	combined := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 4, Combine: true})
	for u := 0; u < g.NumVertices(); u += 11 {
		a := plain.Field("vl", graph.VertexID(u))
		b := combined.Field("vl", graph.VertexID(u))
		if !almostEqual(a, b, 1e-9) {
			t.Fatalf("vl[%d] = %g with combiner, %g without", u, b, a)
		}
	}
	if combined.Stats.CombinedMessages >= combined.Stats.MessagesSent && combined.Stats.MessagesSent > 100 {
		t.Fatalf("combiner ineffective: %d delivered of %d sent",
			combined.Stats.CombinedMessages, combined.Stats.MessagesSent)
	}
}

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

// Property: for random graphs, incremental and baseline PageRank agree and
// incremental never sends more messages.
func TestIncrementalNeverWorseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		m := 1 + rng.Intn(5*n)
		b := graph.NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Finalize()
		g.BuildReverse()
		inc, err := Run(mustCompile("pagerank", core.Incremental), g, RunOptions{Workers: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		base, err := Run(mustCompile("pagerank", core.Baseline), g, RunOptions{Workers: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		if inc.Stats.MessagesSent > base.Stats.MessagesSent {
			return false
		}
		for u := 0; u < n; u++ {
			if !almostEqual(inc.Field("vl", graph.VertexID(u)), base.Field("vl", graph.VertexID(u)), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func mustCompile(name string, mode core.Mode) *core.Program {
	p, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
	if err != nil {
		panic(err)
	}
	return p
}

// Property: SSSP over random weighted DAG-ish graphs agrees with Dijkstra
// in every mode.
func TestSSSPModesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		m := rng.Intn(4 * n)
		b := graph.NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 1+rng.Float64()*5)
		}
		g := b.Finalize()
		g.BuildReverse()
		src := graph.VertexID(rng.Intn(n))
		want := algorithms.SSSPOracle(g, src)
		for _, mode := range allModes {
			res, err := Run(mustCompile("sssp", mode), g, RunOptions{Params: map[string]float64{"src": float64(src)}})
			if err != nil || res.NonMonotoneSends != 0 {
				return false
			}
			for u := range want {
				if !almostEqual(res.Field("dist", graph.VertexID(u)), want[u], 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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

func TestWCCDirectedComponents(t *testing.T) {
	// Directed arcs whose weak components are {0,1,2} and {3,4}.
	b := graph.NewBuilder(5, true)
	b.AddEdge(1, 0) // back edge only: weak connectivity still joins
	b.AddEdge(1, 2)
	b.AddEdge(4, 3)
	g := b.Finalize()
	g.BuildReverse()
	want, _ := graph.ConnectedComponents(g)
	for _, mode := range allModes {
		res := runT(t, "wcc", mode, g, RunOptions{})
		for u := range want {
			if got := res.Field("cid", graph.VertexID(u)); got != float64(want[u]) {
				t.Fatalf("%v: cid[%d] = %g, want %d", mode, u, got, want[u])
			}
		}
	}
}

func TestWCCOnRandomDirectedGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		m := rng.Intn(3 * n)
		b := graph.NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Finalize()
		g.BuildReverse()
		want, _ := graph.ConnectedComponents(g)
		res, err := Run(mustCompile("wcc", core.Incremental), g, RunOptions{Workers: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		for u := range want {
			if res.Field("cid", graph.VertexID(u)) != float64(want[u]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
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

func TestHaltByDefaultActivity(t *testing.T) {
	// In incremental mode, total active-vertex work should be well below
	// |V| × supersteps once the computation quiesces locally.
	g := directedTestGraph()
	inc := runT(t, "pagerank", core.Incremental, g, RunOptions{Workers: 4})
	base := runT(t, "pagerank", core.Baseline, g, RunOptions{Workers: 4})
	if inc.Stats.TotalActive >= base.Stats.TotalActive {
		t.Fatalf("halt-by-default did not reduce activity: %d >= %d",
			inc.Stats.TotalActive, base.Stats.TotalActive)
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
