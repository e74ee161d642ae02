package vm

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// End-to-end integration scenarios combining generators, schedulers and
// programs in ways no single unit test does.

func TestTwoPhaseIterationAccounting(t *testing.T) {
	g := graph.RMAT(6, 3, 0.5, 0.2, 0.2, true, 13)
	g.BuildReverse()
	res := runT(t, "twophase", core.Incremental, g, RunOptions{Workers: 2})
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %v, want 2 phases", res.Iterations)
	}
	if res.Iterations[0] != 1 {
		t.Fatalf("step phase body supersteps = %d, want 1", res.Iterations[0])
	}
	// The iter phase is bounded by until{k >= 5}; quiescence
	// fast-forwarding may execute fewer body supersteps.
	if res.Iterations[1] < 1 || res.Iterations[1] > 5 {
		t.Fatalf("iter phase body supersteps = %d, want 1..5", res.Iterations[1])
	}
	// Superstep budget: init+prime (1) + phase-0 body (1) + phase-1 prime
	// (1) + at most 5 bodies.
	if res.Stats.Supersteps > 8 {
		t.Fatalf("supersteps = %d, want <= 8", res.Stats.Supersteps)
	}
}

func TestEpsilonDriftEventuallySends(t *testing.T) {
	// A chain where the head's value grows by a sub-ε amount per
	// iteration: the §9 policy must accumulate the drift against the last
	// *sent* value and fire once it exceeds ε.
	src := `
init {
  local v : float = 0.0;
  local got : float = 0.0
};
iter k {
  let s : float = + [ u.v | u <- #in ] in
  got = s;
  v = if id == 0 then v + 0.4 else v
} until { k >= 10 }`
	prog, err := core.Compile(src, core.Options{Mode: core.Incremental, Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(2, true) // 0 → 1
	res, err := Run(prog, g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// v(0) grows 0.4/iter for 10 iters = 4.0; with ε=1.0 sends happen only
	// when |v - lastSent| > 1.0, i.e. at drifts of 1.2 (3 steps). The last
	// sent value must be within ε+0.4 of the true final value.
	vFinal := res.Field("v", 0)
	got := res.Field("got", 1)
	if math.Abs(vFinal-4.0) > 1e-9 {
		t.Fatalf("v(0) = %g, want 4.0", vFinal)
	}
	if got == 0 {
		t.Fatal("ε-slop never sent despite 4.0 total drift")
	}
	if diff := math.Abs(vFinal - got); diff > 1.4+1e-9 {
		t.Fatalf("receiver lag %g exceeds ε+step", diff)
	}
}

func TestIntAndBoolFieldsRoundTrip(t *testing.T) {
	// Integer sums and boolean fields flowing through messages.
	src := `
init {
  local n : int = 1;
  local total : int = 0;
  local big : bool = false
};
iter k {
  let s : int = + [ u.n | u <- #in ] in
  total = total + s;
  big = total > 5
} until { k >= 3 }`
	prog, err := core.Compile(src, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	// Star: hub 0 → 4 leaves; each leaf has in-degree 1 from the hub.
	g := graph.Star(5, true)
	g.BuildReverse()
	res, err := Run(prog, g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Each leaf receives n=1 from the hub every iteration (n never
	// changes, so after the prime the accumulator is constant 1):
	// total = 3 after 3 iterations; big = false.
	for u := 1; u <= 4; u++ {
		if got := res.Field("total", graph.VertexID(u)); got != 3 {
			t.Fatalf("total[%d] = %g, want 3", u, got)
		}
		if got := res.Field("big", graph.VertexID(u)); got != 0 {
			t.Fatalf("big[%d] = %g, want 0", u, got)
		}
	}
	// The hub has no in-edges: total stays 0.
	if got := res.Field("total", 0); got != 0 {
		t.Fatalf("total[0] = %g, want 0", got)
	}
}
