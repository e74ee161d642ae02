package pregel

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestChainCheckpointResumeEquivalence is the chain crash-resume suite:
// run with a checkpoint at every barrier, long enough that the chain
// rebases (more than DefaultRebaseEvery records), copy the chain directory
// at every commit point, and require that every such "crash state" loads
// and resumes to the bitwise-identical final answer. Its name deliberately
// matches the CI rerun pattern.
func TestChainCheckpointResumeEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, true, 7)
	const rounds = 2 * DefaultRebaseEvery
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			// newCkptEngine's master stops the run after about 7
			// supersteps; this one lets it cross a rebase first.
			engine := func(seed *Seed, dir string) *Engine[ckptVal, float64] {
				e := newCkptEngine(g, sched, seed, dir, 1)
				e.SetMasterHook(func(mc *MasterContext) {
					if mc.AggValue("total") > 1200 {
						mc.Stop()
					}
				})
				return e
			}
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

			e := engine(nil, dir)
			fullStats, err := e.Run(ckptProgram{rounds: rounds})
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
			if S <= DefaultRebaseEvery+1 {
				t.Fatalf("run too short to cross a rebase: %d supersteps", S)
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
				res := engine(Continue(st.Snapshot), "")
				stats, err := res.Run(ckptProgram{rounds: rounds})
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
			// The final chain itself must load to the Done tip, past a rebase.
			st, err := LoadChain(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Snapshot.Done {
				t.Fatal("final chain tip is not Done")
			}
			if st.Entries[0].Kind != ChainBase || st.Entries[DefaultRebaseEvery+1].Kind != ChainBase {
				t.Fatalf("chain of %d records does not rebase after %d deltas", len(st.Entries), DefaultRebaseEvery)
			}
		})
	}
}

// TestChainCheckpointBytesIncremental pins the engine-level O(touched)
// property: with Every=1, the chain's records between consecutive
// barriers of a mostly-quiescent run must be far smaller than the full
// snapshots the same run's Sink receives.
func TestChainCheckpointBytesIncremental(t *testing.T) {
	g := graph.ErdosRenyi(400, 800, true, 9)
	var full bytes.Buffer
	e := newCkptEngine(g, ScanAll, nil, t.TempDir(), 1)
	e.SetMasterHook(nil) // run all rounds
	e.opts.Checkpoint.Sink = &full
	stats, err := e.Run(ckptProgram{rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps < 6 {
		t.Fatalf("run too short to compare: %d supersteps", stats.Supersteps)
	}
	// Every barrier of this program touches every vertex, so deltas aren't
	// tiny — but they must still beat rewriting the whole snapshot, and
	// the win grows as activity shrinks (pinned by the VM-level test).
	if stats.CheckpointBytes >= int64(full.Len()) {
		t.Fatalf("chain wrote %d bytes, full snapshots only %d", stats.CheckpointBytes, full.Len())
	}
}

// TestChainRecordPathsResume: every snapshot record a checkpointed run
// commits loads, through its own path, to exactly the snapshot the run's
// Sink received at that barrier (TestCheckpointResumeEquivalence resumes
// each one); Stats.CheckpointPath names the last of them. A record file
// the manifest does not commit, a mutation log, the manifest itself and a
// snapshot file outside any chain are refused, naming the path.
func TestChainRecordPathsResume(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, true, 7)
	dir := t.TempDir()
	var sink bytes.Buffer
	e := newCkptEngine(g, WorkQueue, nil, dir, 1)
	e.opts.Checkpoint.Sink = &sink
	stats, err := e.Run(ckptProgram{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	entries := chainEntries(t, dir)
	full, path := sink.Bytes(), ""
	for _, ent := range entries {
		var sunk *Snapshot
		if sunk, full, err = DecodeSnapshot(full); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, ent.Name)
		if !bytes.Equal(chainSnapshot(t, path).AppendTo(nil), sunk.AppendTo(nil)) {
			t.Fatalf("%s loads to a snapshot other than the one the Sink received at superstep %d", path, sunk.Superstep)
		}
	}
	if len(full) != 0 || stats.CheckpointPath != path {
		t.Fatalf("CheckpointPath = %q with %d Sink bytes left over, want the last record %q", stats.CheckpointPath, len(full), path)
	}

	last, _ := os.ReadFile(path)
	orphan := filepath.Join(dir, fmt.Sprintf("chain-%06d.delta", len(entries)))
	bare := filepath.Join(t.TempDir(), "snap.dvsnap")
	for _, p := range []string{orphan, bare} {
		if err := os.WriteFile(p, last, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := NewChainWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.AppendBatch([]byte("add 0 1\n"), chainSnapshot(t, dir)); err != nil {
		t.Fatal(err)
	}
	gdelta := filepath.Join(dir, chainEntries(t, dir)[len(entries)].Name)
	for _, p := range []string{orphan, gdelta, filepath.Join(dir, ChainManifestName), bare} {
		if _, err := LoadChain(p); err == nil || !strings.Contains(err.Error(), p) {
			t.Errorf("LoadChain(%s) = %v, want a refusal naming the path", p, err)
		}
	}
}

// chainEntries returns the manifest rows of the chain in dir.
func chainEntries(t testing.TB, dir string) []ChainEntry {
	t.Helper()
	st, err := LoadChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.Entries
}

// recordAt returns the path of the snapshot record the chain in dir
// committed last for superstep k.
func recordAt(t testing.TB, dir string, k int) string {
	t.Helper()
	entries := chainEntries(t, dir)
	for i := len(entries) - 1; i >= 0; i-- {
		if e := entries[i]; e.Kind != ChainGraphDelta && e.Superstep == k {
			return filepath.Join(dir, e.Name)
		}
	}
	t.Fatalf("chain %s has no record of superstep %d", dir, k)
	return ""
}

// chainSnapshot loads the chain through path, a chain directory or one of
// its records, and returns the snapshot it reconstructs.
func chainSnapshot(t testing.TB, path string) *Snapshot {
	t.Helper()
	st, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Snapshot
}
