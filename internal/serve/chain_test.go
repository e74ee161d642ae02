package serve

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// copyChainDir snapshots a chain directory into a fresh temp dir, byte for
// byte — the crash suites use it to freeze the on-disk state a kill -9
// would have left behind at that instant.
func copyChainDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// chainGrid is the boot-time graph every (re)start hands the server; the
// chain stores only mutation logs on top of it.
func chainGrid() *graph.Graph { return graph.Grid(12, 12, 10, 3) }

func chainServer(t *testing.T, dir string) (*Server, *core.Program) {
	t.Helper()
	prog := compile(t, "sssp", core.Incremental)
	s, err := New(context.Background(), Config{
		Prog: prog, Graph: chainGrid(), Params: map[string]float64{"src": 0},
		Workers: 3, Combine: true, ChainDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, prog
}

// TestServeChainKillAnywhereResume is the crash suite for the checkpoint
// chain: a chained server works through a batch schedule that exercises
// the repair path, vertex growth, and the from-scratch fallback, and the
// chain directory is frozen after every published epoch — each copy is
// exactly what a kill -9 right after that batch would leave on disk. A new
// server booted from each copy (with only the boot-time graph, never the
// mutated one) must come up at the surviving epoch with bit-identical
// published values, without executing a single superstep — and must then
// keep serving and persisting. A second pass freezes the torn window
// between the record write and the manifest rename: the unreferenced
// record files must be ignored and the previous epoch served.
func TestServeChainKillAnywhereResume(t *testing.T) {
	chainDir := t.TempDir()
	s, prog := chainServer(t, chainDir)
	defer s.Close()

	batches := [][]graph.Mutation{
		{{Op: graph.MutAddEdge, U: 0, V: 100, W: 2}},                                       // repairable injection
		{{Op: graph.MutAddVertices, Count: 1}, {Op: graph.MutAddEdge, U: 5, V: 144, W: 1}}, // repairable growth
		{{Op: graph.MutSetWeight, U: 0, V: 100, W: 0.5}},                                   // repairable tightening
		{{Op: graph.MutRemoveEdge, U: 0, V: 1}},                                            // loosening: from-scratch fallback
		{{Op: graph.MutAddEdge, U: 7, V: 60, W: 1.5}},                                      // repair again after a fallback
	}

	// refs[j], mirror[j], fps[j]: the mutated graph, published dist vector,
	// and fingerprint after j batches on the uninterrupted server.
	refs := []*graph.Graph{chainGrid()}
	v0 := s.Current()
	d0, _ := v0.Field("dist")
	mirror := [][]float64{append([]float64(nil), d0...)}
	fps := []uint64{v0.Fingerprint}
	copies := []string{copyChainDir(t, chainDir)}

	for i, muts := range batches {
		ref, _, err := graph.ApplyDelta(refs[len(refs)-1], &graph.Delta{Muts: muts})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
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
		got, _ := v.Field("dist")
		mirror = append(mirror, append([]float64(nil), got...))
		fps = append(fps, v.Fingerprint)
		copies = append(copies, copyChainDir(t, chainDir))
	}
	if st := s.Stats(); st.RepairedBatches != 4 || st.FallbackBatches != 1 || st.FailedBatches != 0 {
		t.Fatalf("uninterrupted stats = %+v, want 4 repaired + 1 fallback", st)
	}

	extra := []graph.Mutation{{Op: graph.MutAddEdge, U: 2, V: 50, W: 1}}
	for j, dir := range copies {
		// Boot from a fresh copy so the continuation batch below does not
		// pollute the frozen state the torn-commit pass reuses.
		s2, _ := chainServer(t, copyChainDir(t, dir))
		v := s2.Current()
		if v.Epoch != int64(j)+1 {
			t.Fatalf("kill after batch %d: restart came up at epoch %d, want %d", j, v.Epoch, j+1)
		}
		if v.Fingerprint != fps[j] {
			t.Fatalf("kill after batch %d: fingerprint %016x, want %016x", j, v.Fingerprint, fps[j])
		}
		if v.Stats.Supersteps != 0 {
			t.Fatalf("kill after batch %d: restart ran %d supersteps; chain boot must seed, not recompute", j, v.Stats.Supersteps)
		}
		got, _ := v.Field("dist")
		sameVector(t, "restarted dist", got, mirror[j], 0)

		// The survivor keeps serving: one more batch repairs from the
		// chain-seeded snapshot and appends to the copied chain.
		refC, _, err := graph.ApplyDelta(refs[j], &graph.Delta{Muts: extra})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Enqueue(extra); err != nil {
			t.Fatal(err)
		}
		vc, err := s2.Flush(context.Background())
		if err != nil {
			t.Fatalf("kill after batch %d: continuation flush: %v", j, err)
		}
		if vc.Epoch != int64(j)+2 || !vc.Repaired {
			t.Fatalf("kill after batch %d: continuation = {Epoch:%d Repaired:%v}, want a repaired epoch %d",
				j, vc.Epoch, vc.Repaired, j+2)
		}
		gotC, _ := vc.Field("dist")
		sameVector(t, "continuation dist", gotC,
			scratchVector(t, prog, refC, map[string]float64{"src": 0}, "dist"), 0)
		refC.Close()
		s2.Close()
	}

	// Torn-commit window: batch j's record files are on disk but the
	// manifest rename never happened. Replay must ignore the unreferenced
	// files and serve epoch j (the previous batch).
	for j := 1; j < len(copies); j++ {
		dir := copyChainDir(t, copies[j])
		mb, err := os.ReadFile(filepath.Join(copies[j-1], pregel.ChainManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pregel.ChainManifestName), mb, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _ := chainServer(t, dir)
		v := s2.Current()
		if v.Epoch != int64(j) {
			t.Fatalf("torn commit of batch %d: epoch %d, want the uncommitted batch dropped (epoch %d)", j, v.Epoch, j)
		}
		got, _ := v.Field("dist")
		sameVector(t, "torn-commit dist", got, mirror[j-1], 0)
		s2.Close()
	}
}

// TestServeChainWrongBootGraph: a chain replays its mutation logs over the
// boot-time graph, so handing the restart a different graph must fail with
// a fingerprint diagnostic instead of serving values for the wrong graph.
func TestServeChainWrongBootGraph(t *testing.T) {
	dir := t.TempDir()
	s, prog := chainServer(t, dir)
	if _, err := s.Enqueue([]graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 100, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	wrong := graph.Grid(11, 11, 10, 3)
	defer wrong.Close()
	_, err := New(context.Background(), Config{
		Prog: prog, Graph: wrong, Params: map[string]float64{"src": 0},
		Workers: 3, Combine: true, ChainDir: dir,
	})
	if !errors.Is(err, pregel.ErrSnapshotMismatch) || !strings.Contains(err.Error(), "mutation log 0") {
		t.Fatalf("wrong boot-time graph: err = %v, want ErrSnapshotMismatch naming mutation log 0", err)
	}
}

// TestServeChainRefusesV1: a chain directory written at format version 1
// carries fingerprints no graph hashes to any more; the restart must refuse
// it for its version, not blame the boot-time graph.
func TestServeChainRefusesV1(t *testing.T) {
	dir := copyChainDir(t, filepath.Join("..", "pregel", "testdata", "v1", "chain"))
	g := graph.Grid(3, 3, 2, 1)
	defer g.Close()
	_, err := New(context.Background(), Config{
		Prog: compile(t, "sssp", core.Incremental), Graph: g, Params: map[string]float64{"src": 0},
		ChainDir: dir,
	})
	if !errors.Is(err, pregel.ErrSnapshotVersion) || errors.Is(err, pregel.ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotVersion (and not ErrSnapshotMismatch)", err)
	}
}

// TestRepairBudgetBounds: New refuses a NaN or negative RepairBudget, and
// a budget whose bound reaches the superstep limit — +Inf or 1e300, which
// convert to the most negative int — is unbounded, not one superstep.
func TestRepairBudgetBounds(t *testing.T) {
	for _, f := range []float64{math.NaN(), -1} {
		if _, err := New(context.Background(), Config{Prog: compile(t, "sssp", core.Incremental), Graph: graph.Grid(3, 3, 1, 1), RepairBudget: f}); err == nil || !strings.Contains(err.Error(), "RepairBudget") {
			t.Errorf("RepairBudget %v: err = %v, want a refusal", f, err)
		}
	}
	for _, tc := range []struct {
		f    float64
		s    int
		want int
	}{
		{0, 600, 0}, {0.001, 600, 1}, {0.5, 600, 300}, {0.001, 0, 1},
		{math.Inf(1), 600, 0}, {math.Inf(1), 0, 0}, {1e300, 600, 0}, {maxSupersteps, 1, 0},
	} {
		s := &Server{cfg: Config{RepairBudget: tc.f}}
		if got := s.repairBudget(&Version{Superstep: tc.s}); got != tc.want {
			t.Errorf("RepairBudget %v at S = %d: budget %d, want %d", tc.f, tc.s, got, tc.want)
		}
	}
}

// TestServeRepairBudgetFallsBack: with a tiny RepairBudget a long repair
// wave must be abandoned past break-even and the batch recomputed from
// scratch — counted separately in Stats — while a generous budget lets the
// same batch repair in place.
func TestServeRepairBudgetFallsBack(t *testing.T) {
	// A heavy shortcut into the far corner of the grid triggers a repair
	// wave that needs several supersteps to drain.
	muts := []graph.Mutation{{Op: graph.MutAddEdge, U: 0, V: 224, W: 0.5}}
	ref, _, err := graph.ApplyDelta(graph.Grid(15, 15, 10, 3), &graph.Delta{Muts: muts})
	if err != nil {
		t.Fatal(err)
	}

	var logged []string
	s, prog := ssspServer(t, Config{
		RepairBudget: 0.001, // ceil(0.001×S) = 1 body superstep
		Logf:         func(f string, a ...any) { logged = append(logged, f) },
	})
	if _, err := s.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v, err := s.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Repaired {
		t.Fatal("budget-starved repair still claimed the repair path")
	}
	got, _ := v.Field("dist")
	sameVector(t, "dist after budget fallback", got,
		scratchVector(t, prog, ref, map[string]float64{"src": 0}, "dist"), 0)
	st := s.Stats()
	if st.FallbackBatches != 1 || st.BudgetFallbackBatches != 1 {
		t.Fatalf("stats = %+v, want the fallback attributed to the budget", st)
	}
	budgetLogged := false
	for _, l := range logged {
		if strings.Contains(l, "break-even") {
			budgetLogged = true
		}
	}
	if !budgetLogged {
		t.Fatalf("budget fallback not logged: %q", logged)
	}

	s2, _ := ssspServer(t, Config{RepairBudget: 50})
	if _, err := s2.Enqueue(muts); err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Repaired {
		t.Fatal("generously budgeted repair fell back")
	}
	if st := s2.Stats(); st.BudgetFallbackBatches != 0 {
		t.Fatalf("stats = %+v, want no budget fallbacks", st)
	}
}
