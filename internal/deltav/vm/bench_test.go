package vm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkVertexBody times the vertex calls of the two benchmark programs,
// pagerank.dv and sssp.dv, on a compact R-MAT 12×8 graph with one worker
// and combining on. It reports ns per vertex call: a whole run's wall time
// over the vertex calls it made (Stats.TotalActive) — the lowered body, its
// sends, and the engine's per-call share.
func BenchmarkVertexBody(b *testing.B) {
	g := graph.MustCompact(graph.RMAT(12, 8, 0.57, 0.19, 0.19, true, 1))
	g.BuildReverse()
	for _, tc := range []struct {
		name   string
		params map[string]float64
	}{
		{"pagerank", nil},
		{"sssp", map[string]float64{"src": 0}},
	} {
		prog := mustCompile(tc.name, core.Incremental)
		b.Run(tc.name, func(b *testing.B) {
			var calls int64
			for i := 0; i < b.N; i++ {
				res, err := Run(prog, g, RunOptions{Workers: 1, Combine: true, Params: tc.params})
				if err != nil {
					b.Fatal(err)
				}
				calls += res.Stats.TotalActive
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/vertex-call")
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
