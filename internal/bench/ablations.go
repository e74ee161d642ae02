package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// AblationDataset is the dataset every ablation runs on, and
// AblationEpsilons the ε values the slop ablation sweeps.
const AblationDataset = "livejournal-dg-s"

var AblationEpsilons = []float64{0, 1e-9, 1e-6, 1e-4, 1e-3}

// MemoTableRow compares the §4.2.1 lookup-table strawman against full
// incrementalization: same meaningful-only message counts, but heavier
// messages, more per-vertex memory, and a slower refold.
type MemoTableRow struct {
	Program    string
	Dataset    string
	Variant    string
	Seconds    float64
	Messages   int64
	MsgBytes   int64
	StateBytes float64
}

// AblationMemoTable runs PageRank and HITS under ΔV and the lookup-table
// strawman.
func AblationMemoTable(ctx context.Context, dataset string, runs int) ([]MemoTableRow, error) {
	g, err := LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	var rows []MemoTableRow
	for _, progName := range []string{"pagerank", "hits"} {
		for _, mode := range []core.Mode{core.Incremental, core.MemoTable} {
			prog, err := core.Compile(programs.MustSource(progName), core.Options{Mode: mode})
			if err != nil {
				return nil, err
			}
			row := MemoTableRow{Program: progName, Dataset: dataset, Variant: mode.String()}
			for i := 0; i < maxInt(1, runs); i++ {
				m, err := vm.NewMachine(prog, g, vm.RunOptions{})
				if err != nil {
					return nil, err
				}
				res, err := m.RunContext(ctx, vm.RunOptions{Combine: mode != core.MemoTable, Workers: BenchWorkers})
				if err != nil {
					return rows, err // completed variants survive an abort
				}
				row.Seconds += res.Stats.Duration.Seconds()
				row.Messages = res.Stats.MessagesSent
				row.MsgBytes = res.Stats.MessageBytes
				row.StateBytes = m.StateBytes()
			}
			row.Seconds /= float64(maxInt(1, runs))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderMemoTable writes the strawman ablation as text.
func RenderMemoTable(w io.Writer, rows []MemoTableRow) error {
	fmt.Fprintln(w, "== Ablation: incrementalization vs §4.2.1 lookup-table memoization ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tProgram\tVariant\tRuntime (s)\tMessages\tMsg bytes\tState bytes/vertex")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%d\t%d\t%.1f\n",
			r.Dataset, r.Program, r.Variant, r.Seconds, r.Messages, r.MsgBytes, r.StateBytes)
	}
	return tw.Flush()
}

// EpsilonRow reports the §9 allowable-slop extension: larger ε suppresses
// more messages at a bounded accuracy cost.
type EpsilonRow struct {
	Epsilon  float64
	Messages int64
	Steps    int
	MaxErr   float64 // max |vl - exact| over vertices
}

// AblationEpsilon sweeps ε for PageRank on a dataset.
func AblationEpsilon(ctx context.Context, dataset string, epsilons []float64) ([]EpsilonRow, error) {
	g, err := LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	exact := algorithms.PageRankOracle(g, PageRankIterations)
	var rows []EpsilonRow
	for _, eps := range epsilons {
		prog, err := core.Compile(programs.MustSource("pagerank"),
			core.Options{Mode: core.Incremental, Epsilon: eps})
		if err != nil {
			return nil, err
		}
		res, err := vm.RunContext(ctx, prog, g, vm.RunOptions{Combine: true, Workers: BenchWorkers})
		if err != nil {
			return rows, err // completed ε points survive an abort
		}
		maxErr := 0.0
		for u := range exact {
			if d := math.Abs(res.Field("vl", graph.VertexID(u)) - exact[u]); d > maxErr {
				maxErr = d
			}
		}
		rows = append(rows, EpsilonRow{
			Epsilon:  eps,
			Messages: res.Stats.MessagesSent,
			Steps:    res.Stats.Supersteps,
			MaxErr:   maxErr,
		})
	}
	return rows, nil
}

// RenderEpsilon writes the ε sweep as text.
func RenderEpsilon(w io.Writer, dataset string, rows []EpsilonRow) error {
	fmt.Fprintf(w, "== Ablation: ε-slop messaging (§9), PageRank on %s ==\n", dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Epsilon\tMessages\tSupersteps\tMax |error|")
	for _, r := range rows {
		fmt.Fprintf(tw, "%g\t%d\t%d\t%.3g\n", r.Epsilon, r.Messages, r.Steps, r.MaxErr)
	}
	return tw.Flush()
}

// SchedulerRow compares the scan-all runtime against the §9 work-queue
// (halt-by-default) scheduler.
type SchedulerRow struct {
	Program   string
	Dataset   string
	Scheduler string
	Seconds   float64
	Active    int64 // total vertices run across supersteps
}

// AblationScheduler times the two schedulers on incremental PageRank and
// SSSP.
func AblationScheduler(ctx context.Context, dataset string, runs int) ([]SchedulerRow, error) {
	g, err := LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	var rows []SchedulerRow
	for _, progName := range []string{"pagerank", "sssp"} {
		prog, err := core.Compile(programs.MustSource(progName), core.Options{Mode: core.Incremental})
		if err != nil {
			return nil, err
		}
		for _, sched := range []pregel.Scheduler{pregel.ScanAll, pregel.WorkQueue} {
			name := "scan-all"
			if sched == pregel.WorkQueue {
				name = "work-queue"
			}
			row := SchedulerRow{Program: progName, Dataset: dataset, Scheduler: name}
			for i := 0; i < maxInt(1, runs); i++ {
				opts := vm.RunOptions{Scheduler: sched, Combine: true, Workers: BenchWorkers}
				if progName == "sssp" {
					opts.Params = map[string]float64{"src": float64(sourceVertex(g))}
				}
				res, err := vm.RunContext(ctx, prog, g, opts)
				if err != nil {
					return rows, err // completed scheduler rows survive an abort
				}
				row.Seconds += res.Stats.Duration.Seconds()
				row.Active = res.Stats.TotalActive
			}
			row.Seconds /= float64(maxInt(1, runs))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderScheduler writes the scheduler ablation as text.
func RenderScheduler(w io.Writer, rows []SchedulerRow) error {
	fmt.Fprintln(w, "== Ablation: scan-all vs work-queue scheduling (§9) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tProgram\tScheduler\tRuntime (s)\tVertices run")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%d\n", r.Dataset, r.Program, r.Scheduler, r.Seconds, r.Active)
	}
	return tw.Flush()
}

// CombinerRow compares message delivery with and without sender-side
// combining.
type CombinerRow struct {
	Program  string
	Dataset  string
	Combine  bool
	Messages int64
	Combined int64
	Seconds  float64
}

// AblationCombiner measures combiner effectiveness on PageRank (ΔV★,
// where per-superstep fan-in is maximal).
func AblationCombiner(ctx context.Context, dataset string, runs int) ([]CombinerRow, error) {
	g, err := LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	prog, err := core.Compile(programs.MustSource("pagerank"), core.Options{Mode: core.Baseline})
	if err != nil {
		return nil, err
	}
	var rows []CombinerRow
	for _, combine := range []bool{false, true} {
		row := CombinerRow{Program: "pagerank", Dataset: dataset, Combine: combine}
		for i := 0; i < maxInt(1, runs); i++ {
			res, err := vm.RunContext(ctx, prog, g, vm.RunOptions{Combine: combine, Workers: BenchWorkers})
			if err != nil {
				return rows, err // completed combiner rows survive an abort
			}
			row.Messages = res.Stats.MessagesSent
			row.Combined = res.Stats.CombinedMessages
			row.Seconds += res.Stats.Duration.Seconds()
		}
		row.Seconds /= float64(maxInt(1, runs))
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCombiner writes the combiner ablation as text.
func RenderCombiner(w io.Writer, rows []CombinerRow) error {
	fmt.Fprintln(w, "== Ablation: sender-side combiners ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tProgram\tCombiner\tMessages\tDelivered\tRuntime (s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t%d\t%.4f\n", r.Dataset, r.Program, r.Combine, r.Messages, r.Combined, r.Seconds)
	}
	return tw.Flush()
}
