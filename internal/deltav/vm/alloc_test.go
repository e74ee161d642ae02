package vm

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/programs"
)

// TestSteadyStateAllocs extends the engine's zero-allocation pin to compiled
// code: once a ΔV run is warm, a superstep — vertex evaluation, Δ-message
// sends, class-indexed combining, exchange, the master's state machine —
// allocates nothing. The method is the engine test's: two runs of one
// program on one graph that differ only in how many supersteps the limit
// lets them execute must allocate exactly the same number of objects, so
// everything per run cancels and anything per superstep shows.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	// No collections while counting: a collection empties the sync.Pools —
	// fmt's printer cache among them, which each run's superstep-limit error
	// draws from — so whether a run refills one would depend on when
	// collections happen to fall, not on the superstep count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// zigzag is a 64-cycle laid out 0→32→1→33→…, so an SSSP wave crosses
	// between the two workers' blocks at every superstep and both buckets it
	// ever uses are warm after two.
	b := graph.NewBuilder(64, true)
	for i := 0; i < 32; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+32))
		b.AddEdge(graph.VertexID(i+32), graph.VertexID((i+1)%32))
	}
	// PageRank with until{fixpoint} is done in nine supersteps on this graph
	// (its ranks are 0.15 plus very little); its buckets, inboxes and queues
	// are at their largest by superstep 1, so 4 against 7 is steady state.
	for _, tc := range []struct {
		name, src   string
		g           *graph.Graph
		workers     int
		short, long int // superstep limits
	}{
		{"pagerank-fixpoint", prFieldSrc, graph.RMAT(10, 8, 0.57, 0.19, 0.19, true, 7), 4, 4, 7},
		{"sssp", programs.MustSource("sssp"), b.Finalize(), 2, 12, 24},
	} {
		prog, err := core.Compile(tc.src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, sched := range deltaScheds {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				run := func(limit int) func() int {
					return func() int {
						res, err := Run(prog, tc.g, RunOptions{Workers: tc.workers, Scheduler: sched, Combine: true, MaxSupersteps: limit})
						if err == nil || !strings.Contains(err.Error(), "superstep limit") {
							t.Fatalf("run must stop at the %d-superstep limit, not finish: %v", limit, err)
						}
						return res.Stats.Supersteps
					}
				}
				short, long := run(tc.short), run(tc.long)
				var shortSteps, longSteps int
				shortAllocs := testing.AllocsPerRun(8, func() { shortSteps = short() })
				longAllocs := testing.AllocsPerRun(8, func() { longSteps = long() })
				if shortSteps != tc.short || longSteps != tc.long {
					t.Fatalf("runs executed %d and %d supersteps, want %d and %d", shortSteps, longSteps, tc.short, tc.long)
				}
				if longAllocs != shortAllocs {
					t.Fatalf("steady-state supersteps allocate: %.3f objects per superstep (%.0f in %d supersteps, %.0f in %d)",
						(longAllocs-shortAllocs)/float64(longSteps-shortSteps), shortAllocs, shortSteps, longAllocs, longSteps)
				}
			})
		}
	}
}
