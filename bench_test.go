// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// table and figure, plus the DESIGN.md ablations. Message counts and other
// non-timing observables are attached as custom metrics so a single
//
//	go test -bench=. -benchmem
//
// run reports both the runtimes (figure bars) and the message counts
// (figure right-hand panels).
package repro

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// BenchmarkTable1Datasets measures stand-in dataset construction and
// reports their shapes (Table 1).
func BenchmarkTable1Datasets(b *testing.B) {
	for _, d := range graph.Datasets() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			var g *graph.Graph
			for i := 0; i < b.N; i++ {
				g = d.Build()
			}
			b.ReportMetric(float64(g.NumVertices()), "vertices")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkTable2StateSize measures compilation and reports the
// vertex-state bytes per variant (Table 2).
func BenchmarkTable2StateSize(b *testing.B) {
	for _, name := range []string{"pagerank", "sssp", "cc", "hits"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var inc, base *core.Program
			for i := 0; i < b.N; i++ {
				var err error
				inc, err = core.Compile(programs.MustSource(name), core.Options{Mode: core.Incremental})
				if err != nil {
					b.Fatal(err)
				}
				base, err = core.Compile(programs.MustSource(name), core.Options{Mode: core.Baseline})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(inc.Layout.ByteSize()), "dV-bytes")
			b.ReportMetric(float64(base.Layout.ByteSize()), "dV*-bytes")
		})
	}
}

// benchVariant runs one (program, dataset, variant) cell of Figure 4/5 per
// benchmark iteration and reports messages and supersteps.
func benchVariant(b *testing.B, program, dataset, variant string) {
	b.Helper()
	// Warm the dataset cache outside the timer.
	if _, err := bench.LoadDataset(dataset); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var row bench.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.Measure(context.Background(), program, dataset, variant, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Messages), "msgs")
	b.ReportMetric(float64(row.Combined), "delivered")
	b.ReportMetric(float64(row.Steps), "supersteps")
}

// BenchmarkFig4 regenerates Figure 4: PageRank, SSSP and HITS on the two
// directed stand-ins for ΔV, ΔV★ and the handwritten Pregel+ reference.
// The left panels of the figure are the ns/op column; the right panels are
// the msgs metric.
func BenchmarkFig4(b *testing.B) {
	for _, ds := range bench.Figure4Datasets {
		for _, prog := range bench.Figure4Programs {
			for _, variant := range bench.Variants {
				ds, prog, variant := ds, prog, variant
				b.Run(ds+"/"+prog+"/"+variant, func(b *testing.B) {
					benchVariant(b, prog, ds, variant)
				})
			}
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: Connected Components on the two
// undirected stand-ins.
func BenchmarkFig5(b *testing.B) {
	for _, ds := range bench.Figure5Datasets {
		for _, variant := range bench.Variants {
			ds, variant := ds, variant
			b.Run(ds+"/cc/"+variant, func(b *testing.B) {
				benchVariant(b, "cc", ds, variant)
			})
		}
	}
}

// BenchmarkAblationMemoTable compares full incrementalization against the
// §4.2.1 lookup-table strawman (DESIGN.md A1).
func BenchmarkAblationMemoTable(b *testing.B) {
	const ds = "livejournal-dg-s"
	for _, variant := range []string{bench.VariantDV, bench.VariantMemoTable} {
		variant := variant
		b.Run(variant, func(b *testing.B) {
			benchVariant(b, "pagerank", ds, variant)
		})
	}
}

// BenchmarkAblationEpsilon sweeps the §9 slop parameter (DESIGN.md A2).
func BenchmarkAblationEpsilon(b *testing.B) {
	g, err := bench.LoadDataset("livejournal-dg-s")
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0, 1e-9, 1e-6, 1e-3} {
		eps := eps
		b.Run(benchName(eps), func(b *testing.B) {
			prog, err := core.Compile(programs.MustSource("pagerank"),
				core.Options{Mode: core.Incremental, Epsilon: eps})
			if err != nil {
				b.Fatal(err)
			}
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := vm.Run(prog, g, vm.RunOptions{Combine: true, Workers: bench.BenchWorkers})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Stats.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

func benchName(eps float64) string {
	switch eps {
	case 0:
		return "eps=0"
	case 1e-9:
		return "eps=1e-9"
	case 1e-6:
		return "eps=1e-6"
	default:
		return "eps=1e-3"
	}
}

// BenchmarkAblationScheduler compares scan-all against the §9 work-queue
// halt-by-default scheduler (DESIGN.md A3).
func BenchmarkAblationScheduler(b *testing.B) {
	g, err := bench.LoadDataset("wikipedia-s")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Compile(programs.MustSource("pagerank"), core.Options{Mode: core.Incremental})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sched pregel.Scheduler
	}{{"scan-all", pregel.ScanAll}, {"work-queue", pregel.WorkQueue}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var active int64
			for i := 0; i < b.N; i++ {
				res, err := vm.Run(prog, g, vm.RunOptions{Scheduler: tc.sched, Combine: true, Workers: bench.BenchWorkers})
				if err != nil {
					b.Fatal(err)
				}
				active = res.Stats.TotalActive
			}
			b.ReportMetric(float64(active), "vertices-run")
		})
	}
}

// BenchmarkAblationCombiner measures sender-side combining on ΔV★
// PageRank, where per-superstep fan-in is maximal (DESIGN.md A5).
func BenchmarkAblationCombiner(b *testing.B) {
	g, err := bench.LoadDataset("wikipedia-s")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Compile(programs.MustSource("pagerank"), core.Options{Mode: core.Baseline})
	if err != nil {
		b.Fatal(err)
	}
	for _, combine := range []bool{false, true} {
		combine := combine
		name := "off"
		if combine {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var delivered int64
			for i := 0; i < b.N; i++ {
				res, err := vm.Run(prog, g, vm.RunOptions{Combine: combine, Workers: bench.BenchWorkers})
				if err != nil {
					b.Fatal(err)
				}
				delivered = res.Stats.CombinedMessages
			}
			b.ReportMetric(float64(delivered), "delivered")
		})
	}
}

// BenchmarkCompile measures raw compiler throughput over the corpus.
func BenchmarkCompile(b *testing.B) {
	for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range programs.Names() {
					if _, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
