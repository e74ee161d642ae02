package algorithms

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/pregel"
)

// The crash-resume equivalence suite for the hand-written algorithms:
// each program runs to completion with a snapshot at every barrier, then is
// "killed" at every superstep k by resuming a fresh engine from the
// superstep-k record of its checkpoint chain. The resumed run must
// reproduce the uninterrupted run's final values bit for bit and take
// exactly the remaining number of supersteps.

// ckptRunner abstracts one algorithm for the table: run it with the given
// options and return final values as raw float bits plus the stats.
type ckptRunner func(t *testing.T, opts RunOptions) ([]uint64, *pregel.Stats)

func checkpointRunners() map[string]ckptRunner {
	prG := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 7)
	ssspG := graph.Grid(12, 15, 9, 3)
	ccG := graph.PreferentialAttachment(200, 2, 5)
	hitsG := graph.RMAT(7, 5, 0.57, 0.19, 0.19, true, 9)
	return map[string]ckptRunner{
		"pagerank": func(t *testing.T, opts RunOptions) ([]uint64, *pregel.Stats) {
			e, stats, err := RunPageRank(prG, 10, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]uint64, 0, len(e.Values()))
			for _, v := range e.Values() {
				out = append(out, math.Float64bits(v.PR))
			}
			return out, stats
		},
		"sssp": func(t *testing.T, opts RunOptions) ([]uint64, *pregel.Stats) {
			e, stats, err := RunSSSP(ssspG, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]uint64, 0, len(e.Values()))
			for _, v := range e.Values() {
				out = append(out, math.Float64bits(v.Dist))
			}
			return out, stats
		},
		"cc": func(t *testing.T, opts RunOptions) ([]uint64, *pregel.Stats) {
			e, stats, err := RunCC(ccG, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]uint64, 0, len(e.Values()))
			for _, v := range e.Values() {
				out = append(out, uint64(v.Comp))
			}
			return out, stats
		},
		"hits": func(t *testing.T, opts RunOptions) ([]uint64, *pregel.Stats) {
			e, stats, err := RunHITS(hitsG, 6, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]uint64, 0, 2*len(e.Values()))
			for _, v := range e.Values() {
				out = append(out, math.Float64bits(v.Hub), math.Float64bits(v.Auth))
			}
			return out, stats
		},
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	scheds := map[string]pregel.Scheduler{
		"scan-all":   pregel.ScanAll,
		"work-queue": pregel.WorkQueue,
	}
	for name, run := range checkpointRunners() {
		for schedName, sched := range scheds {
			for _, combine := range []bool{false, true} {
				sub := name + "/" + schedName
				if combine {
					sub += "/combine"
				}
				run, sched, combine := run, sched, combine
				t.Run(sub, func(t *testing.T) {
					dir := t.TempDir()
					base := RunOptions{Workers: 4, Scheduler: sched, Combine: combine}
					full := base
					full.Checkpoint = pregel.CheckpointOptions{Every: 1, Dir: dir}
					want, fullStats := run(t, full)
					S := fullStats.Supersteps
					if S < 3 {
						t.Fatalf("full run too short: %d supersteps", S)
					}
					chain, err := pregel.LoadChain(dir)
					if err != nil {
						t.Fatal(err)
					}
					if len(chain.Entries) != S {
						t.Fatalf("chain has %d records for %d supersteps", len(chain.Entries), S)
					}
					// Record k of the chain is the barrier of superstep k.
					for k, e := range chain.Entries {
						st, err := pregel.LoadChain(filepath.Join(dir, e.Name))
						if err != nil {
							t.Fatalf("k=%d: %v", k, err)
						}
						res := base
						res.Seed = pregel.Continue(st.Snapshot)
						got, stats := run(t, res)
						if want2 := S - (k + 1); stats.Supersteps != want2 {
							t.Errorf("k=%d: resumed run took %d supersteps, want %d", k, stats.Supersteps, want2)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("k=%d: value bits [%d] = %x, want %x", k, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}
