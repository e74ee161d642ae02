package pregel

import (
	"testing"

	"repro/internal/graph"
)

// TestVertexDeletionWithZeroOutBroadcast reproduces the paper's §9 vertex
// deletion sketch: a vertex that leaves the computation first broadcasts a
// patch that zeroes out its most recently sent contribution, so receivers'
// memoized sums stay coherent after the deletion.
//
// Topology: leavers {1,2,3} each feed vertex 0, which memoizes the sum of
// contributions via Δ-messages (value 10 each). At superstep 2, vertex 2
// deletes itself: it sends -10 (the zero-out Δ) and removes itself. The
// hub's memoized sum must end at 20, and later messages addressed to the
// removed vertex must be dropped.
func TestVertexDeletionWithZeroOutBroadcast(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(3, 0)
	g := b.Finalize()

	e := New[delVal, float64](g, Options{Workers: 2})
	if _, err := e.Run(&deletionProgram{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Value(0).Sum; got != 20 {
		t.Fatalf("hub sum after deletion = %g, want 20", got)
	}
	if e.Value(2).Runs != 2 {
		t.Fatalf("deleted vertex ran %d times, want 2", e.Value(2).Runs)
	}
}

type delVal struct {
	Sum  float64
	Runs int
}

type deletionProgram struct{}

func (*deletionProgram) Init(ctx *Context[delVal, float64]) {
	ctx.Value().Runs++
	if ctx.ID() != 0 {
		// Contribute 10 to the hub's memoized sum (the Δ of a fresh value
		// against the empty cache).
		ctx.BroadcastOut(10)
	}
	// Everyone stays active for one more superstep.
}

func (*deletionProgram) Compute(ctx *Context[delVal, float64], msgs []float64) {
	ctx.Value().Runs++
	for _, m := range msgs {
		ctx.Value().Sum += m // memoized aggregation: apply Δ-patches
	}
	if ctx.Superstep() == 1 && ctx.ID() == 2 {
		// §9: "the vertex being deleted first broadcasts a message that
		// zeros out the value of the vertex to its neighbors before the
		// deletion is performed".
		ctx.BroadcastOut(-10)
		ctx.RemoveSelf()
		return
	}
	if ctx.Superstep() == 1 && ctx.ID() == 1 {
		// Prove post-deletion messages to vertex 2 are dropped silently.
		ctx.Send(2, 999)
	}
	ctx.VoteToHalt()
}
