package main

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/programs"
)

// convergeSpec is one of the two converge workloads: a graph shape, the ΔV
// program run on it and the oracle its answer is held to.
type convergeSpec struct {
	program string // name under internal/programs/src
	field   string
	params  map[string]float64
	gen     func(sz sizes, seed int64) *graph.Graph
	oracle  func(g *graph.Graph) []float64
	tol     float64 // 0: answers must match the oracle bit for bit
}

func convergeDense(sz sizes) convergeSpec {
	return convergeSpec{
		program: "pagerank", field: "vl",
		gen: func(sz sizes, seed int64) *graph.Graph { return rmat(sz.DenseScale, sz.DenseEdgeFactor, seed) },
		oracle: func(g *graph.Graph) []float64 {
			g.BuildReverse()
			return algorithms.PageRankOracle(g, sz.PageRankIters)
		},
		tol: 1e-9,
	}
}

func convergeSparse(sz sizes) convergeSpec {
	return convergeSpec{
		program: "sssp", field: "dist", params: map[string]float64{"src": 0},
		gen:    func(sz sizes, seed int64) *graph.Graph { return weightedGrid(sz.GridSide, seed) },
		oracle: func(g *graph.Graph) []float64 { return ssspOracle(g, 0) },
	}
}

// convergeRun is what one ΔV op leaves behind: the answer, and the state a
// user would still hold (graph + machine) for live_heap_mb.
type convergeRun struct {
	g       *graph.Graph
	machine *vm.Machine
	res     *vm.Result
	vals    []float64
	objects float64 // heap objects and bytes vm.Run allocated
	bytes   float64
}

// convergeOp is the timed op: graph file on disk → compiled program →
// converged values in hand.
func convergeOp(tr *tracer, spec convergeSpec, path string) (run convergeRun, err error) {
	tr.do("graph.ReadGraphFile", func() { run.g, err = graph.ReadGraphFile(path, graph.LoadCompact) })
	if err != nil {
		return run, err
	}
	var prog *core.Program
	tr.do("core.Compile", func() { prog, err = core.Compile(programs.MustSource(spec.program), core.Options{}) })
	if err != nil {
		return run, err
	}
	opts := vm.RunOptions{Params: spec.params, Workers: convergeWorkers, Combine: true}
	tr.do("vm.NewMachine", func() { run.machine, err = vm.NewMachine(prog, run.g, opts) })
	if err != nil {
		return run, err
	}
	tr.do("vm.Run", func() {
		run.objects, run.bytes = allocDelta(func() { run.res, err = run.machine.Run(opts) })
	})
	if err != nil {
		return run, err
	}
	tr.do("vm.FieldVector", func() { run.vals, err = run.res.FieldVector(spec.field) })
	return run, err
}

func runConverge(c *runCtx, spec convergeSpec) error {
	path := c.path("graph.dvg")
	if err := c.setup(func() error { return graph.WriteGraphFile(path, spec.gen(c.sz, c.seed)) }); err != nil {
		return err
	}
	// The oracle runs on its own copy of the graph (PageRankOracle builds a
	// reverse adjacency) and outside set-up time: it is the benchmark's
	// cost, not the user's.
	og, err := graph.ReadGraphFile(path, graph.LoadFlat)
	if err != nil {
		return err
	}
	want := spec.oracle(og)

	var last convergeRun
	pass := func(tr *tracer, budget time.Duration) sample {
		return c.timeOps(budget, func() (float64, bool) {
			c.res.attempted++
			start := time.Now()
			var run convergeRun
			var err error
			tr.runOp("op", func() { run, err = convergeOp(tr, spec, path) })
			elapsed := time.Since(start)
			if err == nil && spec.tol == 0 {
				err = sameBits(run.vals, want)
			} else if err == nil {
				err = within(run.vals, want, spec.tol)
			}
			if err != nil {
				c.res.fail("op: %v", err)
				return 0, false
			}
			last = run
			c.exactRunCounts(run.res.Stats)
			return ms(elapsed), true
		})
	}

	// Two untimed warm-up ops fill the page cache and grow the heap to its
	// steady size.
	for i := 0; i < 2; i++ {
		if _, err := convergeOp(nil, spec, path); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	untracedBudget, tracedBudget := c.budgets()
	ops := pass(nil, untracedBudget)
	heap, err := c.reportEndToEnd("op", ops, "", nil, &last)
	if err != nil || c.tr == nil {
		return err
	}

	tops := pass(c.tr, tracedBudget)
	c.traceSummary("op", ops, tops)
	read := c.tr.durations("op", "graph.ReadGraphFile")
	c.res.set("graph.read_file_ms", read.median())
	c.res.set("graph.decode_mb_per_s", ratio(fileSize(path)/1e6, read.median()/1e3))
	arcBytes := float64(last.g.ArcBytes())
	c.res.exact("graph.bytes_per_arc", ratio(arcBytes, float64(last.g.NumArcs())))
	c.res.set("core.compile_ms", c.tr.durations("op", "core.Compile").median())
	if prog, err := core.Compile(programs.MustSource(spec.program), core.Options{}); err == nil {
		c.tr.runOp("probe", func() { c.tr.do("core.Repairability", func() { _ = prog.Repairability() }) })
	}
	c.res.set("core.repairability_us", 1e3*c.tr.durations("probe", "core.Repairability").median())
	c.res.set("vm.new_machine_ms", c.tr.durations("op", "vm.NewMachine").median())
	c.res.set("vm.field_vector_ms", c.tr.durations("op", "vm.FieldVector").median())
	c.reportEngineStats("vm", last.res.Stats, c.tr.durations("op", "vm.Run").median(), last.objects)
	c.res.set("vm.alloc_mb_per_run", last.bytes/(1<<20))
	c.res.exact("vm.state_bytes_per_vertex", last.machine.StateBytes())
	c.res.set("vm.heap_bytes_per_vertex", ratio(heap*(1<<20)-arcBytes, float64(last.g.NumVertices())))
	return nil
}
