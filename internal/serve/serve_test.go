package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/programs"
)

// compile builds an embedded program in the given mode.
func compile(t testing.TB, name string, mode core.Mode) *core.Program {
	t.Helper()
	prog, err := core.Compile(programs.MustSource(name), core.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// ssspServer spins up a server converging weighted SSSP on a grid. The
// incremental SSSP fixpoint is min-based (idempotent), so delta repair is
// bit-identical to a from-scratch run — the strictest equivalence the
// suite can assert.
func ssspServer(t testing.TB, cfg Config) (*Server, *core.Program) {
	t.Helper()
	prog := compile(t, "sssp", core.Incremental)
	cfg.Prog = prog
	if cfg.Graph == nil {
		cfg.Graph = graph.Grid(15, 15, 10, 3)
	}
	if cfg.Params == nil {
		cfg.Params = map[string]float64{"src": 0}
	}
	cfg.Workers = 3
	cfg.Combine = true
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, prog
}

// scratchVector reruns prog from scratch on g and returns the named field
// — the ground truth every published version is checked against.
func scratchVector(t *testing.T, prog *core.Program, g *graph.Graph, params map[string]float64, field string) []float64 {
	t.Helper()
	res, err := vm.Run(prog, g, vm.RunOptions{Params: params, Workers: 3, Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := res.FieldVector(field)
	if err != nil {
		t.Fatal(err)
	}
	return vec
}

func sameVector(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if tol > 0 && math.Abs(got[i]-want[i]) <= tol {
			continue
		}
		t.Fatalf("%s: vertex %d: got %v, want %v (tol %g)", label, i, got[i], want[i], tol)
	}
}

// TestServeEquivalenceAcrossBatches is the end-to-end acceptance test:
// after N mutation batches the published values must be bit-identical to
// a from-scratch run on the final graph, batch by batch, with the repair
// path (not the fallback) doing the work.
func TestServeEquivalenceAcrossBatches(t *testing.T) {
	s, prog := ssspServer(t, Config{})
	params := map[string]float64{"src": 0}

	// Additions and weight tightenings only: the incremental (dv) min
	// fixpoint can repair those in place; loosening mutations (removals)
	// are exercised by the fallback tests below.
	ref := graph.Grid(15, 15, 10, 3) // mirror of the server's graph
	batches := [][]graph.Mutation{
		{{Op: graph.MutAddEdge, U: 0, V: 200, W: 2}},
		{{Op: graph.MutAddEdge, U: 3, V: 180, W: 1.5}, {Op: graph.MutAddEdge, U: 7, V: 140, W: 3}},
		{{Op: graph.MutSetWeight, U: 3, V: 180, W: 0.25}},
	}
	for i, muts := range batches {
		var err error
		ref, _, err = graph.ApplyDelta(ref, &graph.Delta{Muts: muts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Enqueue(muts); err != nil {
			t.Fatal(err)
		}
		v, err := s.Flush(context.Background())
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if v.Epoch != int64(i)+2 {
			t.Fatalf("batch %d: epoch %d, want %d", i, v.Epoch, i+2)
		}
		if !v.Repaired {
			t.Fatalf("batch %d: expected the delta-repair path, got a fallback", i)
		}
		if v.Fingerprint != ref.Fingerprint() {
			t.Fatalf("batch %d: fingerprint %016x, reference graph %016x", i, v.Fingerprint, ref.Fingerprint())
		}
		got, ok := v.Field("dist")
		if !ok {
			t.Fatal("published version lost the dist field")
		}
		sameVector(t, "dist after batch", got, scratchVector(t, prog, ref, params, "dist"), 0)
	}
	st := s.Stats()
	if st.RepairedBatches != 3 || st.FallbackBatches != 0 || st.FailedBatches != 0 {
		t.Fatalf("stats = %+v, want 3 repaired batches", st)
	}
}

// TestServeMemoTableRemovalFallsBack: SSSP's body folds dist with its own
// previous value, so even in memo-table mode — where the per-neighbour
// tables can retract the removed contribution itself — a loosening
// mutation is outside the repairable class (the clamp would pin the stale
// fixpoint). The daemon surfaced this bug: before the planner's clamp
// guard, RunDelta reported success here and the server kept serving the
// pre-removal distances. Now the batch must fall back and still publish
// the exact from-scratch answer.
func TestServeMemoTableRemovalFallsBack(t *testing.T) {
	prog := compile(t, "sssp", core.MemoTable)
	g := graph.Grid(12, 12, 10, 5)
	params := map[string]float64{"src": 0}
	s, err := New(context.Background(), Config{
		Prog: prog, Graph: g, Params: params, Workers: 3, Combine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref := graph.Grid(12, 12, 10, 5)
	muts := []graph.Mutation{{Op: graph.MutRemoveEdge, U: 0, V: 1}}
	ref, _, err = graph.ApplyDelta(ref, &graph.Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Repaired {
		t.Fatal("clamped memo-table removal claimed the repair path (stale-serving bug)")
	}
	got, _ := v.Field("dist")
	sameVector(t, "dist", got, scratchVector(t, prog, ref, params, "dist"), 0)
	if st := s.Stats(); st.FallbackBatches != 1 || st.FailedBatches != 0 {
		t.Fatalf("stats = %+v, want 1 fallback", st)
	}
}

// nminSrc is a one-hop weighted min whose output is a pure function of
// the aggregate (no self-fold), so edge removal stays repairable in
// memo-table mode: table surgery plus refold re-derives the min exactly.
const nminSrc = `
init {
  local x : float = 1.0 + 1.0 * id;
  local m : float = infty
};
iter k {
  let t : float = min [ u.x + ew | u <- #in ] in
  m = t
} until { fixpoint }
`

// TestServeMemoTableRemovalRepairs is the positive counterpart: with an
// unclamped program the same mutation shape takes the repair path and the
// published min field is bit-identical to a from-scratch rerun.
func TestServeMemoTableRemovalRepairs(t *testing.T) {
	prog, err := core.Compile(nminSrc, core.Options{Mode: core.MemoTable})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(12, 12, 10, 5)
	s, err := New(context.Background(), Config{Prog: prog, Graph: g, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref := graph.Grid(12, 12, 10, 5)
	muts := []graph.Mutation{{Op: graph.MutRemoveEdge, U: 0, V: 1}}
	ref, _, err = graph.ApplyDelta(ref, &graph.Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Repaired {
		t.Fatal("unclamped memo-table removal fell back to scratch")
	}
	got, _ := v.Field("m")
	res, err := vm.Run(prog, ref, vm.RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.FieldVector("m")
	if err != nil {
		t.Fatal(err)
	}
	sameVector(t, "m after repaired removal", got, want, 0)
	if st := s.Stats(); st.RepairedBatches != 1 || st.FallbackBatches != 0 {
		t.Fatalf("stats = %+v, want 1 repaired batch", st)
	}
}

// TestServeFallbackOnLoosenedMin: removing an edge loosens a folded-in
// min contribution, which sssp's self-clamping body cannot unwind; the
// server must fall back and still publish the exact from-scratch fixpoint.
func TestServeFallbackOnLoosenedMin(t *testing.T) {
	s, prog := ssspServer(t, Config{})
	muts := []graph.Mutation{{Op: graph.MutRemoveEdge, U: 0, V: 1}}
	ref, _, err := graph.ApplyDelta(graph.Grid(15, 15, 10, 3), &graph.Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Repaired {
		t.Fatal("loosening batch claimed the repair path")
	}
	got, _ := v.Field("dist")
	sameVector(t, "dist after loosening fallback", got,
		scratchVector(t, prog, ref, map[string]float64{"src": 0}, "dist"), 0)
	if st := s.Stats(); st.FallbackBatches != 1 || st.FailedBatches != 0 {
		t.Fatalf("stats = %+v, want 1 fallback", st)
	}
}

// TestServeRepairOnAddedVertices: a batch that grows the vertex set rides
// the repair path for programs whose init{} ignores the graph size — the
// new vertices are initialized and primed in place, their arcs injected,
// and the published values must still be bit-identical to a from-scratch
// run on the grown graph.
func TestServeRepairOnAddedVertices(t *testing.T) {
	s, prog := ssspServer(t, Config{})
	muts := []graph.Mutation{
		{Op: graph.MutAddVertices, Count: 2},
		{Op: graph.MutAddEdge, U: 0, V: 225, W: 1},
	}
	ref, _, err := graph.ApplyDelta(graph.Grid(15, 15, 10, 3), &graph.Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Repaired {
		t.Fatal("added-vertex batch fell back to scratch; vertex growth is repairable for sssp")
	}
	if v.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v.Epoch)
	}
	got, _ := v.Field("dist")
	sameVector(t, "dist after vertex-add repair", got,
		scratchVector(t, prog, ref, map[string]float64{"src": 0}, "dist"), 0)
	if st := s.Stats(); st.RepairedBatches != 1 || st.FallbackBatches != 0 || st.StaticFallbacks["vertex-add"] != 0 {
		t.Fatalf("stats = %+v, want 1 repaired batch and no fallbacks", st)
	}
}

// TestServeEnqueueBounds: the log is bounded with backpressure, and a
// rejected batch is all-or-nothing. The log stays below MaxBatch (which
// defaults to MaxPending), so the background flusher never drains it while
// the test reads Pending.
func TestServeEnqueueBounds(t *testing.T) {
	s, _ := ssspServer(t, Config{MaxPending: 3})
	one := []graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 7, W: 1}}
	two := []graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 8, W: 1}, {Op: graph.MutAddEdge, U: 0, V: 9, W: 1}}
	for i := 0; i < 2; i++ {
		if _, err := s.Enqueue(one); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Enqueue(two); !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("pending = %d after rejection, want 2", got)
	}
	if st := s.Stats(); st.MutationsRejected != 2 || st.MutationsAccepted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(two); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
}

// TestServeMaxBatchAutoFlush: filling the log to MaxBatch must wake the
// background loop without any ticker configured.
func TestServeMaxBatchAutoFlush(t *testing.T) {
	s, _ := ssspServer(t, Config{MaxBatch: 2})
	muts := []graph.Mutation{
		{Op: graph.MutAddEdge, U: 0, V: 50, W: 1},
		{Op: graph.MutAddEdge, U: 1, V: 60, W: 1},
	}
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auto flush never published: epoch %d, pending %d", s.Current().Epoch, s.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeTickerFlush: the periodic loop drains the log without any
// explicit trigger.
func TestServeTickerFlush(t *testing.T) {
	s, _ := ssspServer(t, Config{BatchInterval: 20 * time.Millisecond})
	if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 33, W: 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ticker flush never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentReadsDuringRepair is the version-swap race suite: reader
// goroutines continuously pin versions and checksum their vectors and
// adjacency while the main goroutine pushes mutation batches through.
// Under -race this proves the swap is clean; the checksum re-reads prove
// a pinned epoch stays bit-identical while repairs publish newer ones.
func TestConcurrentReadsDuringRepair(t *testing.T) {
	s, _ := ssspServer(t, Config{})
	var (
		stop    atomic.Bool
		readErr atomic.Value
		wg      sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		readErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	checksum := func(vec []float64) float64 {
		var sum float64
		for _, x := range vec {
			if !math.IsInf(x, 0) {
				sum += x
			}
		}
		return sum
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pinned *Version
			var pinnedSum float64
			var last int64
			for !stop.Load() {
				v := s.Current()
				if v.Epoch < last {
					fail("epoch went backwards: %d after %d", v.Epoch, last)
					return
				}
				last = v.Epoch
				vec, ok := v.Field("dist")
				if !ok {
					fail("version %d lost its field", v.Epoch)
					return
				}
				sum := checksum(vec)
				// Pin one version across publishes: its data must never
				// move underneath us, no matter how many epochs pass.
				if pinned == nil {
					pinned, pinnedSum = v, sum
				} else {
					pv, _ := pinned.Field("dist")
					if got := checksum(pv); got != pinnedSum {
						fail("pinned epoch %d mutated: %v -> %v", pinned.Epoch, pinnedSum, got)
						return
					}
				}
				// Adjacency read through the lifetime pin.
				if v.g.Retain() {
					it := v.g.OutArcs(0)
					for it.Next() {
					}
					v.g.Release()
				}
			}
		}()
	}
	for b := 0; b < 5; b++ {
		if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: graph.VertexID(40 + b), W: 0.5}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := s.Current().Epoch; got != 6 {
		t.Fatalf("final epoch = %d, want 6", got)
	}
}

// TestReadsCompleteWhileRepairInFlight pins the "repair never blocks
// reads" guarantee deterministically: the mid-repair hook runs while
// Flush holds the repair lock with a fully computed but unpublished
// replacement, and reads issued from inside that window must complete
// immediately and still see the old epoch.
func TestReadsCompleteWhileRepairInFlight(t *testing.T) {
	s, _ := ssspServer(t, Config{})
	before := s.Current()
	hookRan := false
	hookMidRepair = func(old *Version) {
		hookRan = true
		done := make(chan *Version, 1)
		go func() { done <- s.Current() }()
		select {
		case v := <-done:
			if v.Epoch != old.Epoch {
				t.Errorf("read during repair saw epoch %d, want the still-published %d", v.Epoch, old.Epoch)
			}
			if vec, ok := v.Field("dist"); !ok || len(vec) == 0 {
				t.Error("read during repair got no values")
			}
		case <-time.After(5 * time.Second):
			t.Error("read blocked while a repair was in flight")
		}
	}
	defer func() { hookMidRepair = nil }()
	if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 99, W: 1}}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("mid-repair hook never ran")
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d after flush, want %d", after.Epoch, before.Epoch+1)
	}
}

// TestServeBootGraphCollectable: once a flush has superseded the boot-time
// graph nothing in the server may keep it reachable — it is several
// megabytes at serving scale, held for the server's whole life.
func TestServeBootGraphCollectable(t *testing.T) {
	collected := make(chan struct{})
	boot := func() *Server { // its own frame, so the test holds no reference
		g := graph.Grid(15, 15, 10, 3)
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
		s, _ := ssspServer(t, Config{Graph: g})
		return s
	}
	s := boot()
	if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 200, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the boot-time graph is still reachable after a flush superseded it")
}

// TestServeClose: operations after Close fail cleanly and the loop exits.
func TestServeClose(t *testing.T) {
	s, _ := ssspServer(t, Config{BatchInterval: 10 * time.Millisecond})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Flush(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
