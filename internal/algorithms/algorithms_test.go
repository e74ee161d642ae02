package algorithms

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestPageRankMatchesOracle(t *testing.T) {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 7)
	g.BuildReverse()
	want := PageRankOracle(g, 30)
	for _, combine := range []bool{false, true} {
		e, stats, err := RunPageRank(g, 30, RunOptions{Workers: 4, Combine: combine})
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			got := e.Value(graph.VertexID(u)).PR
			if !almostEqual(got, want[u], 1e-12) {
				t.Fatalf("combine=%v: pr[%d] = %g, want %g", combine, u, got, want[u])
			}
		}
		if combine && stats.CombinedMessages >= stats.MessagesSent {
			t.Fatalf("combiner did not reduce: %d >= %d", stats.CombinedMessages, stats.MessagesSent)
		}
		// Fig. 1 sends every superstep: ~|E|·(iterations+1) messages minus
		// dangling vertices' shares.
		if stats.MessagesSent == 0 {
			t.Fatal("no messages sent")
		}
	}
}

func TestSSSPPreIncrementalizedMessageShape(t *testing.T) {
	// SSSP only sends on improvement: total messages should be far below
	// |E| × supersteps (the naive bound).
	g := graph.Grid(20, 20, 5, 11)
	_, stats, err := RunSSSP(g, 0, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(g.NumArcs()) * int64(stats.Supersteps)
	if stats.MessagesSent >= bound/2 {
		t.Fatalf("SSSP sent %d messages, naive bound %d — not send-on-change", stats.MessagesSent, bound)
	}
}
