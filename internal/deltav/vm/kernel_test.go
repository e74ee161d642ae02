package vm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// kernelShapes are programs whose sends reach the kernel branches the
// corpus does not: each shape x ± w, w ± x of a per-arc slot, under min,
// max and sum sites.
var kernelShapes = []struct{ name, src string }{
	{"min-x-w", `init { local d : float = if id == 0 then 0.0 else infty };
iter k { let m : float = min [ u.d - ew | u <- #in ] in d = min d m } until { k >= 6 }`},
	{"max-w-x", `init { local r : float = if id == 0 then 1.0 else 0.0 };
iter k { let m : float = max [ ew - u.r | u <- #in ] in r = max r m } until { k >= 6 }`},
	{"max-x-w", `init { local r : float = 1.0 * id };
iter k { let m : float = max [ u.r + ew | u <- #in ] in r = max r (m * 0.5) } until { k >= 6 }`},
	{"sum-w-x", `init { local x : float = 1.0 + 1.0 * id / graphSize };
iter k { let s : float = + [ ew + u.x | u <- #in ] in x = 0.25 * s / graphSize } until { k >= 5 }`},
	{"sum-w-minus-x", `init { local x : float = 1.0 + 1.0 * id / graphSize };
iter k { let s : float = + [ ew - u.x | u <- #in ] in x = 0.5 + 0.25 * s / graphSize } until { k >= 5 }`},
}

// kernelGraphs are digestGraphs plus, for each of −∞, +∞ and NaN, a seeded
// weighted multigraph whose every fifth arc weighs it.
func kernelGraphs(undirected bool) []*graph.Graph {
	gs := digestGraphs(undirected)
	for _, w := range []float64{math.Inf(-1), math.Inf(1), math.NaN()} {
		rng := rand.New(rand.NewSource(29))
		const n = 40
		b := graph.NewBuilder(n, !undirected)
		for i := 0; i < 3*n; i++ {
			wt := 0.5 + 2*rng.Float64()
			if i%5 == 0 {
				wt = w
			}
			b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), wt)
		}
		g := b.Finalize()
		if !undirected {
			g.BuildReverse()
		}
		gs = append(gs, g)
	}
	return gs
}

// kernelRun is everything a run computes that kernels could change.
type kernelRun struct {
	err     string
	fields  []uint64 // every layout field of every vertex
	ckpt    []byte   // every barrier's snapshot: aggregates, inboxes, machine state
	stats   pregel.Stats
	iters   []int
	nonMono int64
}

func runForKernels(t *testing.T, prog *core.Program, g *graph.Graph, combine, off bool) kernelRun {
	t.Helper()
	kernelsOff = off
	defer func() { kernelsOff = false }()
	var ckpt bytes.Buffer
	res, err := Run(prog, g, RunOptions{
		Workers: 3, Combine: combine, MaxSupersteps: 200,
		Checkpoint: pregel.CheckpointOptions{Every: 1, Sink: &ckpt},
	})
	if err != nil {
		return kernelRun{err: err.Error()}
	}
	out := kernelRun{ckpt: ckpt.Bytes(), stats: *res.Stats, iters: res.Iterations, nonMono: res.NonMonotoneSends}
	for _, f := range prog.Layout.Fields {
		vec, err := res.FieldVector(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vec {
			out.fields = append(out.fields, math.Float64bits(v))
		}
	}
	out.stats.Duration = 0
	out.stats.Steps = slices.Clone(out.stats.Steps)
	for i := range out.stats.Steps {
		out.stats.Steps[i].Duration = 0
	}
	return out
}

// TestKernelsMatchClosures runs every program with core's kernels and with
// every receive and send on the closures (kernelsOff), and requires the two
// runs to be bit-identical: every layout field of every vertex, the
// checkpoint written at every barrier, the iteration and non-monotone
// counts, and every statistic but Duration. The programs are the corpus in
// every mode, randProgram's seeds, and kernelShapes; the graphs include
// arcs of weight −∞, +∞ and NaN. Every kernel variant must have run.
func TestKernelsMatchClosures(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	for _, name := range programs.Names() {
		sources = append(sources, source{name, programs.MustSource(name)})
	}
	for seed := 0; seed < 32; seed++ {
		sources = append(sources, source{fmt.Sprintf("rand%d", seed), randProgram(rand.New(rand.NewSource(int64(seed))))})
	}
	for _, s := range kernelShapes {
		sources = append(sources, source(s))
	}
	seen := map[string]bool{}
	for _, src := range sources {
		for _, mode := range allModes {
			prog, err := core.Compile(src.src, core.Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s %v: %v", src.name, mode, err)
			}
			for _, line := range prog.KernelLines() {
				_, k, _ := strings.Cut(line, "kernel: ")
				seen[k] = true
			}
			for gi, g := range kernelGraphs(usesNeighbors(src.src)) {
				for _, combine := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/g%d/combine=%v", src.name, mode, gi, combine)
					on, off := runForKernels(t, prog, g, combine, false), runForKernels(t, prog, g, combine, true)
					if !reflect.DeepEqual(on, off) {
						t.Errorf("%s: kernels and closures differ:\nkernels  %+v\nclosures %+v", name, on.stats, off.stats)
					}
				}
			}
		}
	}
	for _, k := range []string{
		"fold sum", "fold min", "fold max",
		"per-arc Δ-min x + w", "per-arc full-min x + w", "per-arc Δ-min x - w",
		"per-arc Δ-max x + w", "per-arc Δ-max w - x",
		"per-arc Δ-sum w + x", "per-arc full-sum w + x", "per-arc Δ-sum w - x", "per-arc full-sum w - x",
	} {
		if !seen[k] {
			t.Errorf("no program ran the kernel %q", k)
		}
	}
}
