package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"text/tabwriter"

	"repro/internal/graph"
	"repro/internal/pregel"
)

// Engine micro-benchmark harness: the combined PageRank message-plane
// workload from internal/pregel's BenchmarkMessagePlane, runnable outside
// `go test` so cmd/dvbench can snapshot ns/op, B/op and allocs/op into
// BENCH_pregel.json before and after an engine change.

// MicroRow is one engine micro-benchmark measurement. AbortReason is
// non-empty when the configuration was cancelled or aborted before a clean
// measurement completed; its numbers are then partial and not comparable.
type MicroRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MsgsPerOp   int64   `json:"msgs_per_op"`
	AbortReason string  `json:"abort_reason,omitempty"`
}

// MicroSnapshot is one labelled run of the whole micro-benchmark suite.
type MicroSnapshot struct {
	Label     string     `json:"label"`
	GoVersion string     `json:"go_version"`
	Results   []MicroRow `json:"results"`
}

// MicroFile is the on-disk BENCH_pregel.json format: labelled snapshots
// (conventionally "before" and "after") of the same suite, so perf
// regressions and wins are diffable in-repo.
type MicroFile struct {
	Benchmark string                   `json:"benchmark"`
	Snapshots map[string]MicroSnapshot `json:"snapshots"`
}

// microVal / microProgram mirror internal/pregel's message-plane PageRank:
// every vertex active every superstep, rank/outdeg along every out-edge,
// sum-combined inbox.
type microVal struct{ Rank float64 }

type microProgram struct{ rounds int }

func (p microProgram) Init(ctx *pregel.Context[microVal, float64]) {
	ctx.Value().Rank = 1 / float64(ctx.NumVertices())
	if d := ctx.OutDegree(); d > 0 {
		ctx.BroadcastOut(ctx.Value().Rank / float64(d))
	}
}

func (p microProgram) Compute(ctx *pregel.Context[microVal, float64], msgs []float64) {
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	ctx.Value().Rank = 0.15/float64(ctx.NumVertices()) + 0.85*sum
	if ctx.Superstep() < p.rounds {
		if d := ctx.OutDegree(); d > 0 {
			ctx.BroadcastOut(ctx.Value().Rank / float64(d))
		}
	} else {
		ctx.VoteToHalt()
	}
}

// PregelMicro runs the engine micro-benchmark suite (combined PageRank
// message plane on R-MAT and grid graphs, both schedulers) via
// testing.Benchmark and returns one row per configuration. When ctx is cancelled, remaining configurations are
// emitted as rows with AbortReason set instead of measurements, so the
// snapshot records how far the suite got.
func PregelMicro(ctx context.Context) []MicroRow {
	if ctx == nil {
		ctx = context.Background()
	}
	const rounds = 5
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", graph.RMAT(12, 8, 0.57, 0.19, 0.19, true, 99)},
		{"grid", graph.Grid(64, 64, 1, 5)},
	}
	scheds := []struct {
		name string
		s    pregel.Scheduler
	}{
		{"scan-all", pregel.ScanAll},
		{"work-queue", pregel.WorkQueue},
	}
	var rows []MicroRow
	for _, gs := range graphs {
		for _, sc := range scheds {
			gs, sc := gs, sc
			// The "/block" suffix keeps these rows lined up with the committed
			// BENCH_pregel.json, whose "/hash" rows are the evidence hash
			// placement was deleted on (EXPERIMENTS.md A7).
			name := "message-plane/" + gs.name + "/" + sc.name + "/block"
			if err := ctx.Err(); err != nil {
				rows = append(rows, MicroRow{Name: name, AbortReason: err.Error()})
				continue
			}
			msgs := int64(rounds+1) * int64(gs.g.NumArcs())
			var runErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := pregel.New[microVal, float64](gs.g, pregel.Options{
						Workers:   4,
						Scheduler: sc.s,
					})
					e.SetCombiner(pregel.CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
					if _, err := e.RunContext(ctx, microProgram{rounds: rounds}); err != nil {
						runErr = err
						return
					}
				}
			})
			row := MicroRow{
				Name:        name,
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				MsgsPerOp:   msgs,
			}
			if runErr != nil {
				row.AbortReason = runErr.Error()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderMicro prints the micro-benchmark rows as an aligned table.
func RenderMicro(w io.Writer, rows []MicroRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op\tB/op\tallocs/op\tmsgs/op")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.MsgsPerOp)
	}
	return tw.Flush()
}

// WriteMicroSnapshot merges a labelled snapshot into the JSON artifact at
// path, creating the file if needed and replacing any snapshot with the
// same label.
func WriteMicroSnapshot(path, label string, rows []MicroRow) error {
	file := MicroFile{
		Benchmark: "internal/pregel message plane (combined PageRank, 4 workers)",
		Snapshots: map[string]MicroSnapshot{},
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("bench: parse %s: %w", path, err)
		}
		if file.Snapshots == nil {
			file.Snapshots = map[string]MicroSnapshot{}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Snapshots[label] = MicroSnapshot{
		Label:     label,
		GoVersion: runtime.Version(),
		Results:   rows,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderMicroDelta prints per-configuration before→after ns/op and
// allocs/op changes when the artifact holds both snapshots.
func RenderMicroDelta(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file MicroFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	before, okB := file.Snapshots["before"]
	after, okA := file.Snapshots["after"]
	if !okB || !okA {
		return nil // nothing to diff yet
	}
	byName := map[string]MicroRow{}
	for _, r := range before.Results {
		byName[r.Name] = r
	}
	names := make([]string, 0, len(after.Results))
	rowsByName := map[string]MicroRow{}
	for _, r := range after.Results {
		names = append(names, r.Name)
		rowsByName[r.Name] = r
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op before\tns/op after\tspeedup\tallocs before\tallocs after")
	for _, name := range names {
		a := rowsByName[name]
		b, ok := byName[name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%d\t%d\n",
			name, b.NsPerOp, a.NsPerOp, 100*(a.NsPerOp-b.NsPerOp)/b.NsPerOp, b.AllocsPerOp, a.AllocsPerOp)
	}
	return tw.Flush()
}
