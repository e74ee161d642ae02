package vm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

// The ΔV corpus sharded across a 2-machine socket mesh must reproduce
// the in-process field vectors bitwise: the VM's compiled programs run
// on the same engine, and pregel.GatherRows re-assembles the full state
// matrix on every shard after the run.

// runCorpusSharded2 compiles name in mode and runs it on both shards of
// a fresh unix-socket mesh, returning each shard's Result.
func runCorpusSharded2(t *testing.T, name string, mode core.Mode, g *graph.Graph, base RunOptions) [2]*Result {
	t.Helper()
	return runSharded2(t, g, base, func(opts RunOptions) (*Result, error) {
		return Run(compileT(t, name, mode), g, opts)
	})
}

// runSharded2 calls run once per shard of a fresh 2-shard unix-socket
// mesh over g, with base's options placed on that shard.
func runSharded2(t *testing.T, g *graph.Graph, base RunOptions, run func(RunOptions) (*Result, error)) [2]*Result {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "s0.sock"),
		"unix:" + filepath.Join(dir, "s1.sock"),
	}
	var out [2]*Result
	errs := [2]error{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: 2, Addrs: addrs,
				Fingerprint: g.Fingerprint(), Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			opts := base
			opts.Shard = &pregel.ShardOptions{Index: i, Count: 2, Transport: tr}
			out[i], errs[i] = run(opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return out
}

func TestShardedCorpusBitIdentical(t *testing.T) {
	prG := directedTestGraph()
	ssspG := graph.Grid(12, 15, 9, 3)
	ccG := graph.PreferentialAttachment(500, 3, 7)
	cases := []struct {
		name  string
		field string
		g     *graph.Graph
		opts  RunOptions
	}{
		{"pagerank", "vl", prG, RunOptions{Workers: 4}},
		{"sssp", "dist", ssspG, RunOptions{Workers: 4, Params: map[string]float64{"src": 5}}},
		{"cc", "cid", ccG, RunOptions{Workers: 4}},
		{"sssp", "dist", ssspG, RunOptions{Workers: 4, Quarantine: true, Params: map[string]float64{"src": 5}}},
	}
	for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
		for _, tc := range cases {
			name := tc.name + "-" + mode.String()
			if tc.opts.Quarantine {
				name += "-quarantine"
			}
			t.Run(name, func(t *testing.T) {
				ref := runT(t, tc.name, mode, tc.g, tc.opts)
				want, err := ref.FieldVector(tc.field)
				if err != nil {
					t.Fatal(err)
				}
				outs := runCorpusSharded2(t, tc.name, mode, tc.g, tc.opts)
				for i, res := range outs {
					if res.Stats.MessagesSent != ref.Stats.MessagesSent ||
						res.Stats.Supersteps != ref.Stats.Supersteps ||
						res.Stats.Quarantined != ref.Stats.Quarantined {
						t.Fatalf("shard %d stats diverge: %+v vs %+v", i, res.Stats, ref.Stats)
					}
					got, err := res.FieldVector(tc.field)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("shard %d: %d values, want %d", i, len(got), len(want))
					}
					for u := range want {
						if got[u] != want[u] {
							t.Fatalf("shard %d: %s[%d] = %v, want %v (bitwise)", i, tc.field, u, got[u], want[u])
						}
					}
				}
			})
		}
	}
}

// TestShardedRunDeltaBitIdentical: a delta repair across shards falls out
// of the engine's seed composing with sharding — every shard is handed
// the same whole terminal snapshot and applied delta, plans the same
// repair, runs its own vertex range, and lands on the in-process repair's
// fields and statistics bit for bit. The corpus pagerank.dv is bounded by
// an iteration count, which no delta run accepts in any configuration, so
// the PageRank row is prFieldSrc: the same program with until{fixpoint}.
func TestShardedRunDeltaBitIdentical(t *testing.T) {
	prG := directedTestGraph()
	prD := &graph.Delta{}
	prD.AddEdge(3, 11)
	prD.AddEdge(40, 2)
	ssspG := graph.Grid(12, 15, 9, 3)
	ssspD := &graph.Delta{}
	ssspD.AddWeightedEdge(5, 170, 1)
	ssspD.AddWeightedEdge(20, 99, 2)
	cases := []*struct {
		deltaCase
		field string
		g     *graph.Graph
		d     *graph.Delta
	}{
		{deltaCase{name: "pagerank", src: prFieldSrc, epsilon: 1e-9}, "vl", prG, prD},
		{deltaCase{name: "sssp", prog: "sssp", params: map[string]float64{"src": 5}}, "dist", ssspG, ssspD},
	}
	for _, tc := range cases {
		for schedName, sched := range deltaScheds {
			t.Run(tc.name+"/"+schedName, func(t *testing.T) {
				base := RunOptions{Workers: 4, Combine: true, Params: tc.params}
				opts := base
				opts.Scheduler = sched
				snap, _ := terminalVMSnapshot(t, tc.compile(t), tc.g, base)
				g1, ad, err := graph.ApplyDelta(tc.g, tc.d)
				if err != nil {
					t.Fatal(err)
				}
				repair := func(opts RunOptions) (*Result, error) {
					return RunDelta(tc.compile(t), g1, DeltaRunOptions{
						RunOptions: opts, Snapshot: snap, Changes: ad,
					})
				}
				ref, err := repair(opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Stats.CrossWorker == 0 {
					t.Fatal("reference repair never crossed a worker boundary")
				}
				want, err := ref.FieldVector(tc.field)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range runSharded2(t, g1, opts, repair) {
					if res.Stats.MessagesSent != ref.Stats.MessagesSent ||
						res.Stats.CombinedMessages != ref.Stats.CombinedMessages ||
						res.Stats.Supersteps != ref.Stats.Supersteps {
						t.Fatalf("shard %d stats diverge: %+v vs %+v", i, res.Stats, ref.Stats)
					}
					got, err := res.FieldVector(tc.field)
					if err != nil {
						t.Fatal(err)
					}
					for u := range want {
						if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
							t.Fatalf("shard %d: %s[%d] = %v, want %v (bitwise)", i, tc.field, u, got[u], want[u])
						}
					}
				}
			})
		}
	}
}

// TestShardedCheckpointResumeBitIdentical: a sharded run stopped by
// MaxSupersteps mid-run, with every barrier checkpointed into one chain
// per shard, resumes on both shards from their own chains and lands on the
// uninterrupted in-process fields bit for bit in exactly the remaining
// supersteps: "chain" from the record each shard's run reported in
// Stats.CheckpointPath, which loads to what its directory loads to;
// "record" from the record before it, where a shard one commit behind its
// peer makes both restart.
func TestShardedCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		mode   core.Mode
		field  string
		g      *graph.Graph
		params map[string]float64
	}{
		{"pagerank", core.Incremental, "vl", directedTestGraph(), nil},
		{"sssp", core.MemoTable, "dist", graph.Grid(12, 15, 9, 3), map[string]float64{"src": 5}},
		{"cc", core.MemoTable, "cid", graph.PreferentialAttachment(500, 3, 7), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name+"-"+tc.mode.String(), func(t *testing.T) {
			base := RunOptions{Workers: 4, Combine: true, Params: tc.params}
			ref := runT(t, tc.name, tc.mode, tc.g, base)
			want, err := ref.FieldVector(tc.field)
			if err != nil {
				t.Fatal(err)
			}
			S := ref.Stats.Supersteps
			k := S / 2
			if k < 1 {
				t.Fatalf("reference run too short to stop mid-run: %d supersteps", S)
			}
			// One compiled program per shard and run, compiled here so
			// only the test goroutine can fail the test.
			progs := func() [2]*core.Program {
				return [2]*core.Program{compileT(t, tc.name, tc.mode), compileT(t, tc.name, tc.mode)}
			}
			dirs := [2]string{t.TempDir(), t.TempDir()}
			stopped := progs()
			stops := runSharded2(t, tc.g, base, func(opts RunOptions) (*Result, error) {
				opts.MaxSupersteps = k + 1
				opts.Checkpoint = pregel.CheckpointOptions{Every: 1, Dir: dirs[opts.Shard.Index]}
				res, err := Run(stopped[opts.Shard.Index], tc.g, opts)
				if err == nil || !strings.Contains(err.Error(), "superstep limit") {
					return nil, fmt.Errorf("stopped run: err = %v, want the superstep limit", err)
				}
				return res, nil
			})
			var snaps [2][2]*pregel.Snapshot // [from][shard]
			for i, res := range stops {
				reported := loadChainT(t, res.Stats.CheckpointPath)
				if !bytes.Equal(reported.AppendTo(nil), loadChainT(t, dirs[i]).AppendTo(nil)) {
					t.Fatalf("shard %d: %s loads to a snapshot other than its chain's tip", i, res.Stats.CheckpointPath)
				}
				snaps[0][i], snaps[1][i] = reported, snapshotAt(t, dirs[i], k-1)
			}
			for from, name := range []string{"chain", "record"} {
				t.Run(name, func(t *testing.T) {
					at := k - from
					resumed := progs()
					outs := runSharded2(t, tc.g, base, func(opts RunOptions) (*Result, error) {
						snap := snaps[from][opts.Shard.Index]
						if snap.Superstep != at {
							return nil, fmt.Errorf("resume point is superstep %d, want %d", snap.Superstep, at)
						}
						return ResumeContext(context.Background(), resumed[opts.Shard.Index], tc.g, opts, snap)
					})
					for i, res := range outs {
						if got := res.Stats.Supersteps; got != S-(at+1) {
							t.Errorf("shard %d resumed at superstep %d ran %d supersteps, want %d", i, at, got, S-(at+1))
						}
						got, err := res.FieldVector(tc.field)
						if err != nil {
							t.Fatal(err)
						}
						for u := range want {
							if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
								t.Fatalf("shard %d: %s[%d] = %v, want %v (bitwise)", i, tc.field, u, got[u], want[u])
							}
						}
					}
				})
			}
		})
	}
}
