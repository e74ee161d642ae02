package vm

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkVertexBody times the vertex calls of the two benchmark programs,
// pagerank.dv and sssp.dv, on a compact R-MAT 12×8 graph with one worker
// and combining on, and sssp.dv on a compact weighted 300×300 grid with two
// (sssp-grid: converge-sparse's shape, a thin frontier over 600 supersteps).
// It reports ns per vertex call: a whole run's wall time over the vertex
// calls it made (Stats.TotalActive) — the lowered body, its sends, and the
// engine's per-call share — and superstep 0's time per run, init and the
// phase-0 prime (ms/superstep0).
func BenchmarkVertexBody(b *testing.B) {
	rmat := graph.MustCompact(graph.RMAT(12, 8, 0.57, 0.19, 0.19, true, 1))
	rmat.BuildReverse()
	src := map[string]float64{"src": 0}
	for _, tc := range []struct {
		name, program string
		g             *graph.Graph
		workers       int
		params        map[string]float64
	}{
		{"pagerank", "pagerank", rmat, 1, nil},
		{"sssp", "sssp", rmat, 1, src},
		{"sssp-grid", "sssp", graph.MustCompact(graph.Grid(300, 300, 2, 1)), 2, src},
	} {
		prog := mustCompile(tc.program, core.Incremental)
		b.Run(tc.name, func(b *testing.B) {
			var calls int64
			var step0 time.Duration
			for i := 0; i < b.N; i++ {
				res, err := Run(prog, tc.g, RunOptions{Workers: tc.workers, Combine: true, Params: tc.params})
				if err != nil {
					b.Fatal(err)
				}
				calls += res.Stats.TotalActive
				step0 += res.Stats.Steps[0].Duration
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/vertex-call")
			b.ReportMetric(step0.Seconds()*1000/float64(b.N), "ms/superstep0")
		})
	}
}

// BenchmarkExtraCodec encodes and restores the machine payload of a
// converged sssp.dv run on a compact weighted R-MAT 16×8 graph: the state
// matrix every checkpoint, chain append and chain-tip seed moves.
func BenchmarkExtraCodec(b *testing.B) {
	g := graph.MustCompact(graph.WithRandomWeights(graph.RMAT(16, 8, 0.57, 0.19, 0.19, true, 1), 1, 10, 2))
	res, err := Run(mustCompile("sssp", core.Incremental), g, RunOptions{Workers: 1, Combine: true, Params: map[string]float64{"src": 0}})
	if err != nil {
		b.Fatal(err)
	}
	m := res.machine
	buf := m.encodeExtra(nil, res.endGlobals)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.encodeExtra(buf[:0], res.endGlobals)
		if _, err := m.restoreExtra(buf, g.NumVertices()); err != nil {
			b.Fatal(err)
		}
	}
}
