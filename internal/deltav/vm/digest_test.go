package vm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// Behaviour digests: a frozen record of what the VM computes, taken with the
// AST interpreter the lowered program replaced. Each line names a case and
// holds its exact counts (supersteps, messages sent, delivered after
// combining, vertices run, accounted bytes, non-monotone Δ-messages, phase
// iterations), a SHA-256 over the bits of every layout field of every
// vertex, and a SHA-256 over every checkpoint the run wrote (in-flight
// messages included). The VM must reproduce every line exactly; a failure
// prints the lines it computed instead.

const digestFile = "testdata/digests.txt"

// digestPrograms are the non-corpus programs in the digest set: two random
// programs (randProgram seeds 3 and 6) whose sites share one two-slot send
// group, a three-slot program for the widest message, and ε-PageRank.
var digestPrograms = []struct {
	name string
	src  string
	opts core.Options
}{
	{"rand3", `init {
  local f0 : float = 1.0 + 1.0 * id / graphSize;
  local f1 : float = 1.0 + 1.0 * id / graphSize
};
iter k {
  let a0 : float = + [ u.f1 | u <- #in ] in
  let a1 : float = + [ u.f0 | u <- #in ] in
  f0 = if 0.75 > 1.0 then 0.4 * (0.75) else 0.25 + 0.5 * (f1);
  f1 = max (f0) (0.1 * (0.75))
} until { k >= 4 }`, core.Options{}},
	{"rand6", `init {
  local f0 : float = 1.0 + 1.0 * id / graphSize;
  local f1 : float = if id == 0 then 2.0 else 0.5
};
iter k {
  let a0 : float = min [ u.f0 + ew | u <- #in ] in
  let a1 : float = max [ u.f1 + ew | u <- #in ] in
  f0 = min f0 (max (1.0 * k) (0.1 * (1.0 * k)));
  f1 = max f1 (min (a1) (f1))
} until { k >= 6 }`, core.Options{}},
	{"wide3", `init {
  local a : float = 1.0 + 1.0 * id / graphSize;
  local b : float = if id == 0 then 0.0 else infty
};
iter k {
  let s : float = + [ u.a | u <- #in ] in
  let m : float = min [ u.b + ew | u <- #in ] in
  let x : float = max [ u.a | u <- #in ] in
  a = 0.3 * s + 0.2 * x;
  b = min b m
} until { k >= 5 }`, core.Options{}},
	{"pagerank-eps", programs.MustSource("pagerank"), core.Options{Epsilon: 1e-4}},
}

// digestGraphs are the two small graphs every program runs on: a seeded
// random weighted multigraph (self-loops and parallel arcs included) and an
// R-MAT graph, undirected for the #neighbors programs.
func digestGraphs(undirected bool) []*graph.Graph {
	rng := rand.New(rand.NewSource(17))
	const n = 40
	b := graph.NewBuilder(n, !undirected)
	for i := 0; i < 3*n; i++ {
		b.AddWeightedEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0.5+2*rng.Float64())
	}
	gs := []*graph.Graph{b.Finalize(), graph.RMAT(6, 4, 0.57, 0.19, 0.19, !undirected, 9)}
	for _, g := range gs {
		if !undirected {
			g.BuildReverse()
		}
	}
	return gs
}

func usesNeighbors(src string) bool { return strings.Contains(src, "#neighbors") }

// digestLines runs every case and returns one line per case, in a fixed
// order.
func digestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	type source struct {
		name string
		src  string
		opts core.Options
	}
	var sources []source
	for _, name := range programs.Names() {
		sources = append(sources, source{name, programs.MustSource(name), core.Options{}})
	}
	for _, p := range digestPrograms {
		sources = append(sources, source(p))
	}
	scheds := []struct {
		name string
		s    pregel.Scheduler
	}{{"scan-all", pregel.ScanAll}, {"work-queue", pregel.WorkQueue}}
	for _, src := range sources {
		for _, mode := range allModes {
			opts := src.opts
			opts.Mode = mode
			prog, err := core.Compile(src.src, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", src.name, mode, err)
			}
			for gi, g := range digestGraphs(usesNeighbors(src.src)) {
				for _, sc := range scheds {
					var ckpt bytes.Buffer
					res, err := Run(prog, g, RunOptions{
						Workers: 3, Scheduler: sc.s, Combine: true,
						Checkpoint: pregel.CheckpointOptions{Every: 1, Sink: &ckpt},
					})
					name := fmt.Sprintf("%s/%s/g%d/%s", src.name, mode, gi, sc.name)
					lines = append(lines, digestLine(name, prog, res, err, ckpt.Bytes()))
				}
			}
		}
	}
	// Delta runs: the agreement test's representative delta of every class,
	// repaired from a converged snapshot (or refused, with the reason).
	for _, name := range programs.Names() {
		for _, mode := range []core.Mode{core.Incremental, core.MemoTable} {
			prog, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			g0 := agreementGraph(name)
			opts := RunOptions{Workers: 3, Params: agreementParams(name), Combine: true}
			seed, err := Run(prog, g0, opts)
			if err != nil {
				t.Fatalf("%s %v seed: %v", name, mode, err)
			}
			for c := core.DeltaClass(0); int(c) < core.NumDeltaClasses; c++ {
				g1, ad, err := graph.ApplyDelta(g0, agreementDelta(name, c))
				if err != nil {
					t.Fatal(err)
				}
				g1.BuildReverse()
				res, err := RunDelta(prog, g1, DeltaRunOptions{RunOptions: opts, Snapshot: seed.Snapshot(), Changes: ad})
				lines = append(lines, digestLine(fmt.Sprintf("delta/%s/%s/%s", name, mode, c), prog, res, err, nil))
			}
		}
	}
	return lines
}

func digestLine(name string, prog *core.Program, res *Result, err error, ckpt []byte) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", name, err.Error())
	}
	h := sha256.New()
	var buf [8]byte
	for _, f := range prog.Layout.Fields {
		vec, ferr := res.FieldVector(f.Name)
		if ferr != nil {
			return fmt.Sprintf("%s err=%q", name, ferr.Error())
		}
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	st := res.Stats
	line := fmt.Sprintf("%s steps=%d sent=%d delivered=%d active=%d bytes=%d nonmono=%d iters=%v fields=%x",
		name, st.Supersteps, st.MessagesSent, st.CombinedMessages, st.TotalActive, st.MessageBytes,
		res.NonMonotoneSends, res.Iterations, h.Sum(nil)[:12])
	if ckpt != nil {
		line += fmt.Sprintf(" ckpt=%x", sha256.Sum256(ckpt))
	}
	return line
}

func TestBehaviourDigests(t *testing.T) {
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := digestLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d digest cases, %s has %d", len(got), digestFile, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d digests differ", bad, len(got))
	}
}
