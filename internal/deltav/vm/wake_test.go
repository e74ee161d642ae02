package vm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/programs"
)

// TestQuietPhaseRunsHandwrittenVertices holds ΔV to the handwritten Pregel+
// programs' vertex calls: SSSP's first body superstep runs only the
// vertices the prime's messages reach, so every superstep runs exactly the
// vertices algorithms.RunSSSP runs, and CC runs as many vertices in all.
func TestQuietPhaseRunsHandwrittenVertices(t *testing.T) {
	sssp, err := core.Compile(programs.MustSource("sssp"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.Compile(programs.MustSource("cc"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rmat := graph.WithRandomWeights(graph.RMAT(10, 8, 0.57, 0.19, 0.19, true, 4), 0.5, 4, 5)
	rmat.BuildReverse()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(40, 40, 10, 1)},
		{"rmat", rmat},
	} {
		opts := RunOptions{Workers: 2, Combine: true, Params: map[string]float64{"src": 3}}
		res, err := Run(sssp, tc.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, hw, err := algorithms.RunSSSP(tc.g, 3, algorithms.RunOptions{Workers: 2, Combine: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats.Steps) != len(hw.Steps) {
			t.Fatalf("%s: sssp ran %d supersteps, handwritten %d", tc.name, len(res.Stats.Steps), len(hw.Steps))
		}
		for i, st := range res.Stats.Steps {
			if st.ActiveVertices != hw.Steps[i].ActiveVertices {
				t.Errorf("%s: superstep %d: sssp ran %d vertices, handwritten %d", tc.name, i, st.ActiveVertices, hw.Steps[i].ActiveVertices)
			}
		}
		if tc.g.Directed() {
			continue
		}
		res, err = Run(cc, tc.g, RunOptions{Workers: 2, Combine: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, hw, err = algorithms.RunCC(tc.g, algorithms.RunOptions{Workers: 2, Combine: true}); err != nil {
			t.Fatal(err)
		}
		if res.Stats.TotalActive != hw.TotalActive {
			t.Errorf("%s: cc ran %d vertices, handwritten %d", tc.name, res.Stats.TotalActive, hw.TotalActive)
		}
	}
}

// TestQuiescentPrimeAdvances runs twophase.dv on a graph without arcs:
// phase 1's prime sends nothing, so its first body superstep is skipped,
// and the run must still advance through until{} to the end with the
// fields an unconditional wake computes (the digest below).
func TestQuiescentPrimeAdvances(t *testing.T) {
	prog, err := core.Compile(programs.MustSource("twophase"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Phases[1].Quiet {
		t.Fatalf("twophase phase 1 is not quiet: %s", prog.Phases[1].Wake)
	}
	res, err := Run(prog, graph.NewBuilder(16, true).Finalize(), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, f := range prog.Layout.Fields {
		vec, _ := res.FieldVector(f.Name)
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	const want = "9a643031b45be1b9a62a076959781492c8932c535a7070c0d8b30c0998db8961"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("fields digest %s, want %s", got, want)
	}
	// Init, phase 0's body and phase 1's prime; the woken run also ran
	// phase 1's no-op body.
	if res.Stats.Supersteps != 3 || fmt.Sprint(res.Iterations) != "[1 0]" {
		t.Fatalf("%d supersteps, iterations %v; want 3 and [1 0]", res.Stats.Supersteps, res.Iterations)
	}
}

// TestPrimeBarrierRecordResumes resumes a chain record written at the
// prime barrier by a VM that woke every vertex there (testdata/prime-barrier:
// sssp from vertex 0 on graph.Grid(8, 8, 10, 3), stopped by MaxSupersteps 1).
// The record's active set is every vertex; the resumed run must end with
// the fields of a fresh run.
func TestPrimeBarrierRecordResumes(t *testing.T) {
	prog, err := core.Compile(programs.MustSource("sssp"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(8, 8, 10, 3)
	opts := RunOptions{Workers: 2, Combine: true}
	want, err := Run(prog, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := loadChainT(t, "testdata/prime-barrier")
	if snap.Superstep != 0 || !snap.ActivateAll {
		t.Fatalf("record at superstep %d, ActivateAll %v; want the woken prime barrier", snap.Superstep, snap.ActivateAll)
	}
	resumeMatches(t, prog, g, opts, snap, want)
}

// TestQuietPhaseMatchesWokenTwin runs programs whose phase is quiet next to
// a twin that differs only by a test of the vertex id that always holds,
// which blocks the proof, so the twin wakes every vertex. Their initial
// values include a NaN, where min f ∞ and f == f do not hold, and a −0,
// where f || false is not f bit for bit: the wake guards must keep exactly
// those vertices awake, and every field and message count must match.
func TestQuietPhaseMatchesWokenTwin(t *testing.T) {
	for _, tc := range []struct {
		name, src   string
		quiet, twin string // the assignment's right-hand side
		params      map[string]float64
	}{
		{"min", `param src : int = 0;
init {
  local dist : float = if id == src then 0.0 else (if id == 5 then 0.0 * infty else infty)
};
iter k {
  let d : float = min [ u.dist + ew | u <- #in ] in
  dist = RHS
} until { fixpoint }`, "min dist d", "if id >= 0 then min dist d else 0.0", nil},
		{"max", `init {
  local best : float = if id == 3 then 0.0 * infty else 1.0 * id
};
iter k {
  let m : float = max [ u.best | u <- #in ] in
  best = RHS
} until { fixpoint }`, "max best m", "if id >= 0 then max best m else 0.0", nil},
		{"or", `param b : bool = false;
init {
  local r : bool = if id == 1 then true else b
};
iter k {
  let a : bool = || [ u.r | u <- #in ] in
  r = RHS
} until { fixpoint }`, "r || a", "if id >= 0 then r || a else false", map[string]float64{"b": math.Copysign(0, -1)}},
	} {
		compile := func(rhs string) *core.Program {
			p, err := core.Compile(strings.Replace(tc.src, "RHS", rhs, 1), core.Options{MaxIterations: 30})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return p
		}
		qp, tp := compile(tc.quiet), compile(tc.twin)
		if !qp.Phases[0].Quiet || tp.Phases[0].Quiet || !tp.Phases[0].Halts {
			t.Fatalf("%s: quiet %v (%s), twin quiet %v, halts %v", tc.name, qp.Phases[0].Quiet, qp.Phases[0].Wake, tp.Phases[0].Quiet, tp.Phases[0].Halts)
		}
		for gi, g := range digestGraphs(false) {
			opts := RunOptions{Workers: 3, Combine: true, Params: tc.params}
			a, errA := Run(qp, g, opts)
			b, errB := Run(tp, g, opts)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s/g%d: errors %v and %v", tc.name, gi, errA, errB)
			}
			if a.Stats.MessagesSent != b.Stats.MessagesSent || a.Stats.Supersteps != b.Stats.Supersteps {
				t.Errorf("%s/g%d: %d messages in %d supersteps, twin %d in %d", tc.name, gi,
					a.Stats.MessagesSent, a.Stats.Supersteps, b.Stats.MessagesSent, b.Stats.Supersteps)
			}
			if a.Stats.TotalActive >= b.Stats.TotalActive {
				t.Errorf("%s/g%d: quiet phase ran %d vertices, its woken twin %d", tc.name, gi, a.Stats.TotalActive, b.Stats.TotalActive)
			}
			for _, f := range qp.Layout.Fields {
				x, _ := a.FieldVector(f.Name)
				y, _ := b.FieldVector(f.Name)
				for u := range x {
					if math.Float64bits(x[u]) != math.Float64bits(y[u]) {
						t.Errorf("%s/g%d: %s[%d] = %x, twin %x", tc.name, gi, f.Name, u, math.Float64bits(x[u]), math.Float64bits(y[u]))
					}
				}
			}
		}
	}
}

// TestStartTemplateGates pins when superstep 0 copies the start template
// (core.Program.Start) and which vertices still run init: the source
// vertex, by the float compare OpEq makes, and none where a non-finite
// weight keeps SSSP's prime alive, under closures, on a resumed run or for
// a program without a template. Superstep 0 counts every vertex as run
// either way.
func TestStartTemplateGates(t *testing.T) {
	grid := graph.Grid(12, 15, 9, 3)
	nan := graph.NewBuilder(4, true)
	nan.AddWeightedEdge(0, 1, 1)
	nan.AddWeightedEdge(1, 2, math.NaN())
	nanG := nan.Finalize()
	for _, tc := range []struct {
		name, program string
		g             *graph.Graph
		src           float64
		closures      bool
		want          []graph.VertexID // nil: no template
	}{
		{"sssp", "sssp", grid, 37, false, []graph.VertexID{37}},
		{"sssp-negzero", "sssp", grid, math.Copysign(0, -1), false, []graph.VertexID{0}},
		{"sssp-frac", "sssp", grid, 1.5, false, []graph.VertexID{}},
		{"sssp-past", "sssp", grid, 180, false, []graph.VertexID{}},
		{"sssp-nan", "sssp", nanG, 0, false, nil},
		{"sssp-closures", "sssp", grid, 0, true, nil},
		{"bfs-nan", "bfs", nanG, 2, false, []graph.VertexID{2}},
		{"reach", "reach", grid, 5, false, []graph.VertexID{5}},
		{"allreach", "allreach", grid, 0, false, nil},
	} {
		prog := mustCompile(tc.program, core.Incremental)
		opts := RunOptions{Workers: 3, closures: tc.closures}
		if _, ok := paramIndex(prog, "src"); ok {
			opts.Params = map[string]float64{"src": tc.src}
		}
		res, err := Run(prog, tc.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		row, exceptions := startOf(res.machine)
		if (row != nil) != (tc.want != nil) || row != nil && fmt.Sprint(exceptions) != fmt.Sprint(tc.want) {
			t.Errorf("%s: template %v, exceptions %v; want exceptions %v", tc.name, row, exceptions, tc.want)
		}
		if n := tc.g.NumVertices(); res.Stats.Steps[0].ActiveVertices != n {
			t.Errorf("%s: superstep 0 ran %d vertices, want all %d", tc.name, res.Stats.Steps[0].ActiveVertices, n)
		}
		if tc.want != nil {
			res, err = ResumeContext(context.Background(), prog, tc.g, opts, res.Snapshot())
			if row, _ := startOf(res.machine); err != nil || row != nil {
				t.Errorf("%s: resumed with template %v (%v)", tc.name, row, err)
			}
		}
	}
}

// startOf is a machine's start template and exceptions.
func startOf(m *Machine) ([]float64, []graph.VertexID) {
	switch x := m.x.(type) {
	case *exec[float64]:
		return x.start, x.exceptions
	case *exec[Msg[[1]float64]]:
		return x.start, x.exceptions
	}
	return nil, nil
}
