package pregel

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// copyTree copies every regular file in src into dst (flat chain dirs
// only), simulating the state a crash would leave on disk.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChainCheckpointResumeEquivalence is the chain-mode crash-resume
// suite: run with an incremental checkpoint chain, snapshot the chain
// directory at every commit point, and require that every such
// "crash state" loads and resumes to the bitwise-identical final answer —
// the incremental analogue of TestCheckpointResumeEquivalence. Its name
// deliberately matches the CI rerun pattern.
func TestChainCheckpointResumeEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, true, 7)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			dir := t.TempDir()
			copies := t.TempDir()
			var chains []string
			prev := chainCommitHook
			chainCommitHook = func(stage string) {
				// Copy at both stages: before the manifest rename the
				// copy must load to the previous commit, after it to
				// the new one — either way resume must be exact.
				dst := filepath.Join(copies, fmt.Sprintf("crash-%03d-%s", len(chains), stage))
				copyTree(t, dir, dst)
				chains = append(chains, dst)
			}
			defer func() { chainCommitHook = prev }()

			e := New[ckptVal, float64](g, Options{
				Workers:   4,
				Scheduler: sched,
				Checkpoint: CheckpointOptions{
					Every:       1,
					Dir:         dir,
					Incremental: true,
					RebaseEvery: 3,
				},
			})
			if _, err := e.RegisterAggregator("total", AggSum, true); err != nil {
				t.Fatal(err)
			}
			if _, err := e.RegisterAggregator("peak", AggMax, false); err != nil {
				t.Fatal(err)
			}
			e.SetMasterHook(func(mc *MasterContext) {
				if mc.AggValue("total") > 400 {
					mc.Stop()
				}
			})
			fullStats, err := e.Run(ckptProgram{rounds: 8})
			if err != nil {
				t.Fatal(err)
			}
			if fullStats.CheckpointBytes == 0 {
				t.Fatal("chain run recorded no CheckpointBytes")
			}
			want := append([]ckptVal(nil), e.Values()...)
			wantPeak := e.AggregatorValue("peak")
			wantTotal := e.AggregatorValue("total")
			S := fullStats.Supersteps
			if S < 5 {
				t.Fatalf("full run too short to be interesting: %d supersteps", S)
			}
			if len(chains) < S {
				t.Fatalf("only %d crash states for %d supersteps", len(chains), S)
			}

			seen := map[int]bool{}
			for _, cdir := range chains {
				st, err := LoadChain(cdir)
				if err != nil {
					if os.IsNotExist(err) {
						continue // crash before the first commit: no manifest yet
					}
					t.Fatalf("%s: %v", cdir, err)
				}
				k := st.Snapshot.Superstep
				seen[k] = true
				res := newCkptEngine(g, sched, Continue(st.Snapshot), "", 0)
				stats, err := res.Run(ckptProgram{rounds: 8})
				if err != nil {
					t.Fatalf("%s (k=%d): resume: %v", cdir, k, err)
				}
				wantLeft := S - (k + 1)
				if st.Snapshot.Done {
					wantLeft = 0
				}
				if stats.Supersteps != wantLeft {
					t.Errorf("%s (k=%d): resumed run took %d supersteps, want %d", cdir, k, stats.Supersteps, wantLeft)
				}
				for u, w := range want {
					got := res.Value(VertexID(u))
					if math.Float64bits(got.X) != math.Float64bits(w.X) || got.N != w.N {
						t.Fatalf("%s (k=%d): value[%d] = %+v, want %+v", cdir, k, u, got, w)
					}
				}
				if got := res.AggregatorValue("peak"); got != wantPeak {
					t.Errorf("k=%d: peak = %g, want %g", k, got, wantPeak)
				}
				if got := res.AggregatorValue("total"); got != wantTotal {
					t.Errorf("k=%d: total = %g, want %g", k, got, wantTotal)
				}
			}
			// Kill-anywhere must have covered every checkpointed superstep.
			for k := 0; k < S; k++ {
				if !seen[k] {
					t.Errorf("no crash state resumed from superstep %d", k)
				}
			}
			// The final chain itself must load to the Done tip.
			st, err := LoadChain(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Snapshot.Done {
				t.Fatal("final chain tip is not Done")
			}
		})
	}
}

// TestChainCheckpointBytesIncremental pins the engine-level O(touched)
// property: with Every=1, the chain's delta records between consecutive
// barriers of a mostly-quiescent run must be far smaller than the full
// snapshot the non-incremental path would have written each time.
func TestChainCheckpointBytesIncremental(t *testing.T) {
	g := graph.ErdosRenyi(400, 800, true, 9)
	run := func(incremental bool) *Stats {
		dir := t.TempDir()
		e := New[ckptVal, float64](g, Options{
			Workers: 4,
			Checkpoint: CheckpointOptions{
				Every:       1,
				Dir:         dir,
				Incremental: incremental,
				RebaseEvery: 1 << 30, // never rebase: isolate delta-record size
			},
		})
		if _, err := e.RegisterAggregator("total", AggSum, true); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RegisterAggregator("peak", AggMax, false); err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(ckptProgram{rounds: 6})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	full := run(false)
	inc := run(true)
	if inc.Supersteps != full.Supersteps {
		t.Fatalf("incremental run diverged: %d vs %d supersteps", inc.Supersteps, full.Supersteps)
	}
	// Every barrier of this program touches every vertex, so deltas aren't
	// tiny — but they must still beat rewriting the whole snapshot, and
	// the win grows as activity shrinks (pinned by the VM-level test).
	if inc.CheckpointBytes >= full.CheckpointBytes {
		t.Fatalf("incremental chain wrote %d bytes, full snapshots only %d", inc.CheckpointBytes, full.CheckpointBytes)
	}
}
