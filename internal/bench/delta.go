package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// Streaming-delta experiment: after a handful of edge mutations arrive, is
// it cheaper to re-run the converged program from scratch on the mutated
// graph, or to warm-start from the pre-mutation snapshot and repair only
// the delta-incident contributions (DESIGN.md §11)? The seed run is not
// part of the comparison — it was already paid for when the original graph
// was processed.

// DeltaRow is one (program, dataset, variant) comparison of a full rerun
// against a delta-recomputation warm restart over the same mutations.
type DeltaRow struct {
	Program string
	Dataset string
	Variant string
	Arcs    int // arc changes in the applied delta (mirrors counted)
	Runs    int

	ScratchSeconds  float64
	ScratchMessages int64
	ScratchSteps    int

	DeltaSeconds  float64
	DeltaMessages int64
	DeltaSteps    int

	// Checkpoint persistence cost after the repair: a full terminal
	// snapshot of the repaired state vs the DVSNPD delta record an
	// incremental checkpoint chain would append for the same barrier.
	FullCkptBytes  int
	DeltaCkptBytes int
}

// deltaMutations builds the deterministic small-delta workload for a
// program: a few streaming edge arrivals. For min-fold programs (sssp, cc)
// the mutations are additions only — removals loosen a min input, which is
// not repairable in place (see vm.RunDelta).
func deltaMutations(program string, g *graph.Graph) (*graph.Delta, error) {
	n := g.NumVertices()
	d := &graph.Delta{}
	switch program {
	case "sssp":
		// New links toward the well-connected source (no distance changes)
		// plus one fresh shortcut out of it (a small local improvement).
		src := sourceVertex(g)
		d.AddWeightedEdge(graph.VertexID(n/7), src, 1)
		d.AddWeightedEdge(graph.VertexID(n/3), src, 1)
		d.AddWeightedEdge(src, graph.VertexID(n/2), 1)
		return d, nil
	case "cc":
		// New intra-component friendships: labels are already consistent,
		// the repair wave should die out immediately.
		d.AddEdge(7, graph.VertexID(n/2))
		d.AddEdge(graph.VertexID(n/4), graph.VertexID(3*n/4))
		return d, nil
	}
	return nil, fmt.Errorf("bench: no delta workload for %q", program)
}

// MeasureDelta runs the rerun-vs-repair comparison for one program,
// dataset and compiled variant, averaging wall time over runs executions.
func MeasureDelta(ctx context.Context, program, dataset, variant string, runs int) (DeltaRow, error) {
	g0, err := LoadDataset(dataset)
	if err != nil {
		return DeltaRow{}, err
	}
	mode, err := modeOf(variant)
	if err != nil {
		return DeltaRow{}, err
	}
	if runs <= 0 {
		runs = 1
	}
	d, err := deltaMutations(program, g0)
	if err != nil {
		return DeltaRow{}, err
	}
	compile := func() (*core.Program, error) {
		return core.Compile(programs.MustSource(program), core.Options{Mode: mode})
	}
	opts := vm.RunOptions{Combine: true, Workers: BenchWorkers}
	if program == "sssp" {
		opts.Params = map[string]float64{"src": float64(sourceVertex(g0))}
	}
	fail := func(err error) (DeltaRow, error) {
		return DeltaRow{}, fmt.Errorf("bench: delta %s/%s/%s: %w", program, dataset, variant, err)
	}

	// Seed: converge on the pre-mutation graph and keep its terminal
	// snapshot.
	prog, err := compile()
	if err != nil {
		return fail(err)
	}
	seed, err := vm.RunContext(ctx, prog, g0, opts)
	if err != nil {
		return fail(err)
	}
	snap := seed.Snapshot()

	g1, ad, err := graph.ApplyDelta(g0, d)
	if err != nil {
		return fail(err)
	}

	row := DeltaRow{Program: program, Dataset: dataset, Variant: variant, Arcs: len(ad.Arcs), Runs: runs}
	var scratchTotal, deltaTotal time.Duration
	var dres *vm.Result
	for i := 0; i < runs; i++ {
		prog, err := compile()
		if err != nil {
			return fail(err)
		}
		res, err := vm.RunContext(ctx, prog, g1, opts)
		if err != nil {
			return fail(err)
		}
		scratchTotal += res.Stats.Duration
		row.ScratchMessages = res.Stats.MessagesSent
		row.ScratchSteps = res.Stats.Supersteps

		prog, err = compile()
		if err != nil {
			return fail(err)
		}
		dres, err = vm.RunDeltaContext(ctx, prog, g1, vm.DeltaRunOptions{
			RunOptions: opts,
			Snapshot:   snap,
			Changes:    ad,
		})
		if err != nil {
			return fail(err)
		}
		deltaTotal += dres.Stats.Duration
		row.DeltaMessages = dres.Stats.MessagesSent
		row.DeltaSteps = dres.Stats.Supersteps
	}
	row.ScratchSeconds = scratchTotal.Seconds() / float64(runs)
	row.DeltaSeconds = deltaTotal.Seconds() / float64(runs)

	// Checkpoint-bytes comparison: price persisting the repaired barrier
	// both ways. The snapshot is taken after the run's clock stopped, so it
	// is not in the wall-clock numbers above.
	repaired := dres.Snapshot()
	row.FullCkptBytes = len(repaired.AppendTo(nil))
	row.DeltaCkptBytes = len(pregel.DiffSnapshots(snap, repaired).AppendTo(nil))
	return row, nil
}

// DeltaCases are the canonical streaming workloads of the experiment.
var DeltaCases = []struct {
	Program, Dataset, Variant string
}{
	{"sssp", "wikipedia-s", VariantDV},
	{"sssp", "wikipedia-s", VariantMemoTable},
	{"cc", "facebook-s", VariantDV},
}

// DeltaRecompute runs the full experiment. Like Figure4, an abort returns
// the rows completed before the abort alongside the error.
func DeltaRecompute(ctx context.Context, runs int) ([]DeltaRow, error) {
	var rows []DeltaRow
	for _, c := range DeltaCases {
		r, err := MeasureDelta(ctx, c.Program, c.Dataset, c.Variant, runs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderDelta writes the comparison as text, one row per case with the
// rerun/repair ratios that make the payoff visible at a glance.
func RenderDelta(w io.Writer, rows []DeltaRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tProgram\tVariant\tΔarcs\tScratch (s)\tRepair (s)\tSpeedup\tScratch msgs\tRepair msgs\tScratch steps\tRepair steps\tFull ckpt (B)\tΔ ckpt (B)")
	for _, r := range rows {
		speedup := 0.0
		if r.DeltaSeconds > 0 {
			speedup = r.ScratchSeconds / r.DeltaSeconds
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4f\t%.4f\t%.1fx\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Dataset, r.Program, r.Variant, r.Arcs,
			r.ScratchSeconds, r.DeltaSeconds, speedup,
			r.ScratchMessages, r.DeltaMessages, r.ScratchSteps, r.DeltaSteps,
			r.FullCkptBytes, r.DeltaCkptBytes)
	}
	return tw.Flush()
}
