package vm

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// Delta-recomputation equivalence: RunDelta on the mutated graph, seeded
// from the converged pre-mutation snapshot, must produce the same user
// fields as a from-scratch run on the mutated graph — bitwise for
// idempotent (min) programs, up to float re-association for sum-based ones
// — while doing strictly less work for a small delta.
//
// Removals are only exercised for invertible (sum) aggregations: SSSP and
// CC clamp against their own previous value (dist = min dist d), so a
// loosened input is unrecoverable by *any* execution strategy — the
// algorithms are monotone by construction — and the planner rejects
// min-retraction to surface that early.

// fixpoint-terminating sources for programs whose stock versions use an
// iteration bound (which a warm repair cannot continue meaningfully).
const (
	// prFieldSrc is stock PageRank with until{fixpoint}: the degree
	// dependence sits in the pr *field*, so mutated-degree vertices must be
	// re-woken to recompute and re-broadcast it.
	prFieldSrc = `
init {
  local vl : float = 1.0 / graphSize;
  local pr : float = if |#out| > 0 then vl / |#out| else 0.0
};
iter i {
  let sum : float = + [ u.pr | u <- #in ] in
  vl = 0.15 + 0.85 * (sum / graphSize);
  pr = if |#out| > 0 then vl / |#out| else 0.0
} until { fixpoint }
`
	// prSiteSrc moves the degree dependence into the aggregand itself, so
	// the slot expression reads the sender's out-degree and the planner
	// must re-send over the sender's whole adjacency.
	prSiteSrc = `
init {
  local vl : float = 1.0 / graphSize
};
iter i {
  let sum : float = + [ u.vl / |#out| | u <- #in ] in
  vl = 0.15 + 0.85 * (sum / graphSize)
} until { fixpoint }
`
	// nsumSrc is a weighted one-hop sum: x never changes, s is the
	// weighted sum of in-neighbour x values. Every arc mutation maps to
	// exactly one retraction/injection/transition.
	nsumSrc = `
init {
  local x : float = 1.0 + 1.0 * id;
  local s : float = 0.0
};
iter k {
  let t : float = + [ u.x * ew | u <- #in ] in
  s = t
} until { fixpoint }
`
)

var deltaScheds = map[string]pregel.Scheduler{
	"scan-all":   pregel.ScanAll,
	"work-queue": pregel.WorkQueue,
}

// terminalVMSnapshot runs the program to convergence with a Sink-only
// checkpoint and returns the single terminal snapshot plus the result. It
// also pins the way out: the snapshot the Result hands back as a value
// encodes to exactly the bytes the Sink received.
func terminalVMSnapshot(t *testing.T, prog *core.Program, g *graph.Graph, opts RunOptions) (*pregel.Snapshot, *Result) {
	t.Helper()
	var buf bytes.Buffer
	opts.Checkpoint = pregel.CheckpointOptions{Sink: &buf}
	res, err := Run(prog, g, opts)
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}
	if !bytes.Equal(res.Snapshot().AppendTo(nil), buf.Bytes()) {
		t.Fatal("Result.Snapshot() does not encode to the bytes the Sink received")
	}
	snap, _, err := pregel.DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode terminal snapshot: %v", err)
	}
	if !snap.Done {
		t.Fatalf("terminal snapshot not Done")
	}
	return snap, res
}

// deltaCase drives one (program, mode, graph, delta) equivalence check
// across schedulers and returns the scratch and delta stats of the last
// scheduler for work assertions.
type deltaCase struct {
	name    string
	src     string // inline source; empty means stock program progName
	prog    string
	mode    core.Mode
	epsilon float64
	params  map[string]float64
	combine bool
	fields  []string
	bitwise bool
}

func (tc *deltaCase) compile(t *testing.T) *core.Program {
	t.Helper()
	src := tc.src
	if src == "" {
		src = programs.MustSource(tc.prog)
	}
	p, err := core.Compile(src, core.Options{Mode: tc.mode, Epsilon: tc.epsilon})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func (tc *deltaCase) run(t *testing.T, g0 *graph.Graph, d *graph.Delta) (scratch, delta *pregel.Stats) {
	t.Helper()
	g1, ad, err := graph.ApplyDelta(g0, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	// The seed snapshot is taken under ScanAll; a warm start is
	// scheduler-agnostic, so both schedulers replay from the same snapshot.
	base := RunOptions{Workers: 4, Params: tc.params, Combine: tc.combine}
	snap, _ := terminalVMSnapshot(t, tc.compile(t), g0, base)
	for schedName, sched := range deltaScheds {
		opts := base
		opts.Scheduler = sched
		scratchRes, err := Run(tc.compile(t), g1, opts)
		if err != nil {
			t.Fatalf("%s: scratch run: %v", schedName, err)
		}
		deltaRes, err := RunDelta(tc.compile(t), g1, DeltaRunOptions{
			RunOptions: opts,
			Snapshot:   snap,
			Changes:    ad,
		})
		if err != nil {
			t.Fatalf("%s: delta run: %v", schedName, err)
		}
		for _, f := range tc.fields {
			want, err := scratchRes.FieldVector(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := deltaRes.FieldVector(f)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				if tc.bitwise {
					if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
						t.Fatalf("%s: %s[%d] = %g (%x), want %g (%x)",
							schedName, f, u, got[u], math.Float64bits(got[u]), want[u], math.Float64bits(want[u]))
					}
				} else if !close9(got[u], want[u]) {
					t.Fatalf("%s: %s[%d] = %g, want %g", schedName, f, u, got[u], want[u])
				}
			}
		}
		scratch, delta = scratchRes.Stats, deltaRes.Stats
	}
	return scratch, delta
}

// assertCheaper checks the paper's delta-recomputation payoff: strictly
// fewer supersteps and strictly fewer messages than the from-scratch run.
func assertCheaper(t *testing.T, scratch, delta *pregel.Stats) {
	t.Helper()
	if delta.Supersteps >= scratch.Supersteps {
		t.Errorf("delta run took %d supersteps, scratch %d — expected strictly fewer", delta.Supersteps, scratch.Supersteps)
	}
	if delta.MessagesSent >= scratch.MessagesSent {
		t.Errorf("delta run sent %d messages, scratch %d — expected strictly fewer", delta.MessagesSent, scratch.MessagesSent)
	}
}

// weightedChain builds a directed weighted path 0→1→…→n-1 (weight 2), the
// worst case for a from-scratch SSSP wave and the best showcase for a
// localized repair.
func weightedChain(n int) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for i := 0; i < n-1; i++ {
		b.AddWeightedEdge(graph.VertexID(i), graph.VertexID(i+1), 2)
	}
	return b.Finalize()
}

func TestDeltaRecomputeSSSP(t *testing.T) {
	for _, mode := range []core.Mode{core.Incremental, core.MemoTable} {
		t.Run(mode.String(), func(t *testing.T) {
			g0 := weightedChain(80)
			d := &graph.Delta{}
			d.AddWeightedEdge(0, 60, 1.5)  // shortcut: tightens 60..79
			d.SetWeight(30, 31, 1)         // tightened existing arc
			d.AddWeightedEdge(70, 10, 100) // loose arc: injected but never wins
			tc := &deltaCase{
				prog: "sssp", mode: mode, fields: []string{"dist"},
				params: map[string]float64{"src": 0}, bitwise: true, combine: true,
			}
			scratch, delta := tc.run(t, g0, d)
			assertCheaper(t, scratch, delta)
		})
	}
}

// TestDeltaRecomputeVertexAdd: growth repairs in place — the planner runs
// init{} for the appended vertices, injects their (simultaneously added)
// arcs, and the repair wave integrates them into the converged state,
// bitwise equal to a from-scratch run on the grown graph.
func TestDeltaRecomputeVertexAdd(t *testing.T) {
	for _, mode := range []core.Mode{core.Incremental, core.MemoTable} {
		t.Run(mode.String(), func(t *testing.T) {
			g0 := weightedChain(80)
			d := &graph.Delta{}
			d.AddVertices(2)
			d.AddWeightedEdge(79, 80, 2)  // extend the chain into vertex 80
			d.AddWeightedEdge(80, 81, 1)  // ... and on to 81
			d.AddWeightedEdge(81, 40, 50) // loose back-arc: injected, never wins
			tc := &deltaCase{
				prog: "sssp", mode: mode, fields: []string{"dist"},
				params: map[string]float64{"src": 0}, bitwise: true,
			}
			scratch, delta := tc.run(t, g0, d)
			if delta.MessagesSent >= scratch.MessagesSent {
				t.Errorf("delta run sent %d messages, scratch %d — expected strictly fewer",
					delta.MessagesSent, scratch.MessagesSent)
			}
		})
	}
}

// TestDeltaRecomputeVertexAddIsolated: appended vertices with no arcs
// still run init{} and their body to a private fixpoint.
func TestDeltaRecomputeVertexAddIsolated(t *testing.T) {
	g0 := graph.Cycle(60, false)
	d := &graph.Delta{}
	d.AddVertices(3)
	tc := &deltaCase{prog: "cc", mode: core.Incremental, fields: []string{"cid"}, bitwise: true}
	tc.run(t, g0, d)
}

// TestDeltaRunSuperstepBudget: a repair wave that outlives its superstep
// budget aborts with ErrRepairBudget instead of finishing, so servers can
// switch to a from-scratch rerun past break-even.
func TestDeltaRunSuperstepBudget(t *testing.T) {
	g0 := weightedChain(80)
	prog := mustCompile("sssp", core.Incremental)
	snap, _ := terminalVMSnapshot(t, prog, g0, RunOptions{Workers: 2, Params: map[string]float64{"src": 0}})
	d := &graph.Delta{}
	d.AddWeightedEdge(0, 40, 1.5) // tightens the whole 40..79 suffix: a long wave
	g1, ad, err := graph.ApplyDelta(g0, d)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{
		RunOptions:      RunOptions{Workers: 2, Params: map[string]float64{"src": 0}},
		Snapshot:        snap,
		Changes:         ad,
		SuperstepBudget: 3,
	})
	if !errors.Is(err, ErrRepairBudget) {
		t.Fatalf("budget 3 on a 40-superstep wave: err = %v, want ErrRepairBudget", err)
	}
	// The same repair with room to spare completes.
	res, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{
		RunOptions:      RunOptions{Workers: 2, Params: map[string]float64{"src": 0}},
		Snapshot:        snap,
		Changes:         ad,
		SuperstepBudget: 10_000,
	})
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if res.Stats.Supersteps == 0 {
		t.Fatal("repair did no work")
	}
}

// TestDeltaCheckpointIncrementalBytes pins the O(touched) end of the
// checkpoint chain: a converged run's chain holds one full base record;
// a three-arc repair appended to the same chain writes a delta record a
// couple of orders of magnitude smaller.
func TestDeltaCheckpointIncrementalBytes(t *testing.T) {
	g0 := weightedChain(3000)
	dir := t.TempDir()
	ck := pregel.CheckpointOptions{Dir: dir}
	seed, err := Run(mustCompile("sssp", core.Incremental), g0, RunOptions{
		Workers: 4, Params: map[string]float64{"src": 0}, Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := seed.Stats.CheckpointBytes
	if baseBytes == 0 {
		t.Fatal("seed run wrote no checkpoint bytes")
	}
	st, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := &graph.Delta{}
	d.AddWeightedEdge(100, 50, 500) // three loose arcs: the repair wave
	d.AddWeightedEdge(900, 20, 500) // dies immediately, so the chain's
	d.AddWeightedEdge(2500, 7, 500) // next record is O(touched)
	g1, ad, err := graph.ApplyDelta(g0, d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{
		RunOptions: RunOptions{Workers: 4, Params: map[string]float64{"src": 0}, Checkpoint: ck},
		Snapshot:   st.Snapshot,
		Changes:    ad,
	})
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := res.Stats.CheckpointBytes
	if deltaBytes == 0 {
		t.Fatal("repair run wrote no checkpoint bytes")
	}
	if deltaBytes*50 > baseBytes {
		t.Fatalf("repair chain record is %d bytes, base is %d — not O(touched)", deltaBytes, baseBytes)
	}
	// The chain must now replay to the repaired state.
	st2, err := pregel.LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Snapshot.Fingerprint != g1.Fingerprint() {
		t.Fatal("chain tip does not carry the mutated graph's fingerprint")
	}
	want, _ := res.FieldVector("dist")
	seeded, err := SeedFromSnapshot(mustCompile("sssp", core.Incremental), g1, RunOptions{}, st2.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := seeded.FieldVector("dist")
	for u := range want {
		if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
			t.Fatalf("chain-seeded dist[%d] = %g, want %g", u, got[u], want[u])
		}
	}
	// A seeded Result hands the same snapshot on to the next repair.
	if !bytes.Equal(seeded.Snapshot().AppendTo(nil), st2.Snapshot.AppendTo(nil)) {
		t.Fatal("seeded Result.Snapshot() differs from the snapshot it was seeded with")
	}
}

func TestDeltaRecomputeCC(t *testing.T) {
	g0 := graph.Cycle(180, false)
	d := &graph.Delta{}
	d.AddEdge(20, 130)
	tc := &deltaCase{prog: "cc", mode: core.Incremental, fields: []string{"cid"}, bitwise: true}
	scratch, delta := tc.run(t, g0, d)
	assertCheaper(t, scratch, delta)
}

// randWeighted builds a random directed weighted multigraph.
func randWeighted(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, true)
	for i := 0; i < m; i++ {
		b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0.5+2*rng.Float64())
	}
	return b.Finalize()
}

// firstArc returns some existing arc of g.
func firstArc(t *testing.T, g *graph.Graph) (u, v graph.VertexID) {
	t.Helper()
	for x := 0; x < g.NumVertices(); x++ {
		if it := g.OutArcs(graph.VertexID(x)); it.Next() {
			return graph.VertexID(x), it.To()
		}
	}
	t.Fatal("graph has no arcs")
	return 0, 0
}

func TestDeltaRecomputeWeightedSum(t *testing.T) {
	for _, mode := range []core.Mode{core.Incremental, core.MemoTable} {
		t.Run(mode.String(), func(t *testing.T) {
			g0 := randWeighted(60, 150, 11)
			u, v := firstArc(t, g0)
			d := &graph.Delta{}
			d.RemoveEdge(u, v) // clears all parallel arcs: memo-table surgery
			d.AddWeightedEdge(7, 3, 1.25)
			d.AddWeightedEdge(3, 7, 0.5)
			d.SetWeight(7, 3, 4) // reweight the arc added above
			tc := &deltaCase{src: nsumSrc, mode: mode, fields: []string{"s"}}
			tc.run(t, g0, d)
		})
	}
}

// nminSrc is a weighted one-hop min whose output field is a pure function
// of the aggregate — no `m = min m t` self-fold. That keeps loosening
// mutations inside the memo-table repairable class: surgery deletes the
// retracted entry and the refold re-derives the min exactly.
const nminSrc = `
init {
  local x : float = 1.0 + 1.0 * id;
  local m : float = infty
};
iter k {
  let t : float = min [ u.x + ew | u <- #in ] in
  m = t
} until { fixpoint }
`

// TestDeltaRecomputeUnclampedMinRemoval: edge removal against a min site
// is repairable in memo-table mode when the body does not clamp — the
// positive counterpart of the TestDeltaClampedLoosening rejections.
func TestDeltaRecomputeUnclampedMinRemoval(t *testing.T) {
	g0 := randWeighted(60, 150, 11)
	u, v := firstArc(t, g0)
	d := &graph.Delta{}
	d.RemoveEdge(u, v) // clears all parallel arcs: memo-table surgery
	d.AddWeightedEdge(7, 3, 1.25)
	tc := &deltaCase{src: nminSrc, mode: core.MemoTable, fields: []string{"m"}, bitwise: true}
	tc.run(t, g0, d)

	// The same removal in incremental mode still hits the accumulator
	// retraction wall (no table to delete from), with advice that is only
	// honest because the body is unclamped.
	opts := RunOptions{Workers: 4}
	prog, err := core.Compile(nminSrc, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := terminalVMSnapshot(t, prog, g0, opts)
	g1, ad, err := graph.ApplyDelta(g0, d)
	if err != nil {
		t.Fatal(err)
	}
	prog, err = core.Compile(nminSrc, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunDelta(prog, g1, DeltaRunOptions{RunOptions: opts, Snapshot: snap, Changes: ad})
	wantErr(t, err, "cannot retract")
}

// TestDeltaClampedLoosening: SSSP's `dist = min dist d` folds the field
// with its own previous value, so a loosening mutation would leave dist
// pinned at the stale (tighter) fixpoint even though the memo table can
// retract the contribution itself. dvserve surfaced this: before the
// planner guard, RunDelta reported success and the daemon served stale
// distances forever. Both mutation shapes that can loosen — removal and a
// weight increase — must be rejected so callers fall back to scratch.
func TestDeltaClampedLoosening(t *testing.T) {
	g0 := graph.Grid(12, 12, 10, 5)
	opts := RunOptions{Workers: 3, Params: map[string]float64{"src": 0}, Combine: true}
	snap, _ := terminalVMSnapshot(t, mustCompile("sssp", core.MemoTable), g0, opts)
	cases := []struct {
		name string
		mut  func(*graph.Delta)
	}{
		{"remove", func(d *graph.Delta) { d.RemoveEdge(0, 1) }},
		{"loosen-reweight", func(d *graph.Delta) { d.SetWeight(0, 1, 99) }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			d := &graph.Delta{}
			tt.mut(d)
			g1, ad, err := graph.ApplyDelta(g0, d)
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunDelta(mustCompile("sssp", core.MemoTable), g1, DeltaRunOptions{
				RunOptions: opts, Snapshot: snap, Changes: ad,
			})
			wantErr(t, err, "pin the stale fixpoint")
		})
	}
}

func TestDeltaRecomputePageRankField(t *testing.T) {
	g0 := graph.RMAT(7, 3, 0.57, 0.19, 0.19, true, 42)
	u, v := firstArc(t, g0)
	d := &graph.Delta{}
	d.RemoveEdge(u, v)
	d.AddEdge(3, 11)
	tc := &deltaCase{src: prFieldSrc, mode: core.Incremental, epsilon: 1e-9, fields: []string{"vl", "pr"}}
	scratch, delta := tc.run(t, g0, d)
	if delta.MessagesSent >= scratch.MessagesSent {
		t.Errorf("delta run sent %d messages, scratch %d — expected strictly fewer", delta.MessagesSent, scratch.MessagesSent)
	}
}

func TestDeltaRecomputeSiteCardinality(t *testing.T) {
	g0 := graph.RMAT(7, 3, 0.57, 0.19, 0.19, true, 7)
	u, v := firstArc(t, g0)
	d := &graph.Delta{}
	d.RemoveEdge(u, v)
	d.AddEdge(5, 23)
	tc := &deltaCase{src: prSiteSrc, mode: core.Incremental, epsilon: 1e-9, fields: []string{"vl"}}
	scratch, delta := tc.run(t, g0, d)
	if delta.MessagesSent >= scratch.MessagesSent {
		t.Errorf("delta run sent %d messages, scratch %d — expected strictly fewer", delta.MessagesSent, scratch.MessagesSent)
	}
}

// TestDeltaRecomputeNoop: an empty delta leaves the fingerprint and values
// untouched; the repair frontier is empty and the run converges on the spot.
func TestDeltaRecomputeNoop(t *testing.T) {
	g0 := weightedChain(40)
	prog := mustCompile("sssp", core.Incremental)
	snap, seed := terminalVMSnapshot(t, prog, g0, RunOptions{Workers: 3})
	g1, ad, err := graph.ApplyDelta(g0, &graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{
		RunOptions: RunOptions{Workers: 3},
		Snapshot:   snap,
		Changes:    ad,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps > 2 {
		t.Errorf("no-op delta ran %d supersteps", res.Stats.Supersteps)
	}
	want, _ := seed.FieldVector("dist")
	got, _ := res.FieldVector("dist")
	for u := range want {
		if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
			t.Fatalf("dist[%d] = %g, want %g", u, got[u], want[u])
		}
	}
}

// TestDeltaRunValidation pins every rejection path with its reason.
func TestDeltaRunValidation(t *testing.T) {
	g0 := weightedChain(30)
	snap, _ := terminalVMSnapshot(t, mustCompile("sssp", core.Incremental), g0, RunOptions{Workers: 2})

	apply := func(t *testing.T, d *graph.Delta) (*graph.Graph, *graph.AppliedDelta) {
		t.Helper()
		g1, ad, err := graph.ApplyDelta(g0, d)
		if err != nil {
			t.Fatal(err)
		}
		return g1, ad
	}
	addOne := &graph.Delta{}
	addOne.AddWeightedEdge(0, 20, 1)

	t.Run("baseline-mode", func(t *testing.T) {
		g1, ad := apply(t, addOne)
		_, err := RunDelta(mustCompile("sssp", core.Baseline), g1, DeltaRunOptions{Snapshot: snap, Changes: ad})
		wantErr(t, err, "delta runs need")
	})
	t.Run("multi-phase", func(t *testing.T) {
		g1, ad := apply(t, addOne)
		_, err := RunDelta(mustCompile("twophase", core.Incremental), g1, DeltaRunOptions{Snapshot: snap, Changes: ad})
		wantErr(t, err, "single-phase")
	})
	t.Run("iteration-bounded-until", func(t *testing.T) {
		g1, ad := apply(t, addOne)
		_, err := RunDelta(mustCompile("pagerank", core.Incremental), g1, DeltaRunOptions{Snapshot: snap, Changes: ad})
		wantErr(t, err, "fixpoint")
	})
	t.Run("new-vertices-reads-graphsize", func(t *testing.T) {
		// Vertex additions repair in place unless vertex code reads #V:
		// growth then changes every existing vertex's inputs, and init{}
		// only reruns for the new ones. The profile's verdict gates the run.
		d := &graph.Delta{}
		d.AddVertices(2)
		g1, ad := apply(t, d)
		prog, err := core.Compile(prFieldSrc, core.Options{Mode: core.Incremental, Epsilon: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunDelta(prog, g1, DeltaRunOptions{Snapshot: snap, Changes: ad})
		wantErr(t, err, "graph size")
	})
	t.Run("new-vertices-count-mismatch", func(t *testing.T) {
		d := &graph.Delta{}
		d.AddVertices(2)
		g1, ad := apply(t, d)
		bad := *ad
		bad.NewVertices = 1
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Snapshot: snap, Changes: &bad})
		wantErr(t, err, "the delta adds")
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		g1, ad := apply(t, addOne)
		bad := *ad
		bad.OldFingerprint++
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Snapshot: snap, Changes: &bad})
		wantErr(t, err, "snapshot was taken on graph")
	})
	t.Run("missing-snapshot", func(t *testing.T) {
		g1, ad := apply(t, addOne)
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Changes: ad})
		wantErr(t, err, "needs a snapshot")
	})
	t.Run("missing-changes", func(t *testing.T) {
		g1, _ := apply(t, addOne)
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Snapshot: snap})
		wantErr(t, err, "needs the applied delta")
	})
	t.Run("min-retraction", func(t *testing.T) {
		// Removing an arc loosens a min input. SSSP's body clamps dist
		// with its own previous value, so even a mode whose accumulator
		// could retract the contribution (memo tables) would publish a
		// pinned stale fixpoint; the planner rejects the loosening before
		// strategy dispatch in both modes.
		d := &graph.Delta{}
		d.RemoveEdge(10, 11)
		g1, ad := apply(t, d)
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Snapshot: snap, Changes: ad})
		wantErr(t, err, "pin the stale fixpoint")
	})
	t.Run("non-terminal-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		opts := RunOptions{Workers: 2, Params: map[string]float64{"src": 0},
			Checkpoint: pregel.CheckpointOptions{Every: 1, Dir: dir}}
		if _, err := Run(mustCompile("sssp", core.Incremental), g0, opts); err != nil {
			t.Fatal(err)
		}
		g1, ad := apply(t, addOne)
		_, err := RunDelta(mustCompile("sssp", core.Incremental), g1, DeltaRunOptions{Snapshot: snapshotAt(t, dir, 2), Changes: ad})
		wantErr(t, err, "terminal")
	})
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}
