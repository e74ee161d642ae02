package algorithms

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

// The reference algorithms sharded across a 2-engine socket mesh must
// produce bit-identical values and merged stats versus the in-process
// run with the same total worker count. The repo benchmark's
// shard2-dense workload runs the same configuration over the wire.

const shardTestWorkers = 4

// runSharded2 runs fn once per shard over a fresh unix-socket mesh and
// returns each shard's result.
func runSharded2[R any](t *testing.T, fp uint64, fn func(shard int, tr transport.Transport) (R, error)) [2]R {
	t.Helper()
	dir := t.TempDir()
	addrs := []string{
		"unix:" + filepath.Join(dir, "s0.sock"),
		"unix:" + filepath.Join(dir, "s1.sock"),
	}
	var out [2]R
	errs := [2]error{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: 2, Addrs: addrs,
				Fingerprint: fp, Timeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			out[i], errs[i] = fn(i, tr)
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

func shardOpts(i int, tr transport.Transport) RunOptions {
	return RunOptions{
		Workers: shardTestWorkers,
		Combine: true,
		Shard:   &pregel.ShardOptions{Index: i, Count: 2, Transport: tr},
	}
}

func requireSameStats(t *testing.T, label string, got, want *pregel.Stats) {
	t.Helper()
	if got.Supersteps != want.Supersteps || got.MessagesSent != want.MessagesSent ||
		got.CombinedMessages != want.CombinedMessages || got.TotalActive != want.TotalActive {
		t.Fatalf("%s: merged stats diverge:\n got %+v\nwant %+v", label, got, want)
	}
}

func TestShardedPageRankBitIdentical(t *testing.T) {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 7)
	const iters = 10
	ref, refStats, err := RunPageRank(g, iters, RunOptions{Workers: shardTestWorkers, Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := runSharded2(t, g.Fingerprint(), func(i int, tr transport.Transport) ([]PRState, error) {
		e, st, err := RunPageRank(g, iters, shardOpts(i, tr))
		if err != nil {
			return nil, err
		}
		requireSameStats(t, fmt.Sprintf("shard %d", i), st, refStats)
		return e.Values(), nil
	})
	for i, vals := range outs {
		for u, v := range vals {
			if v != ref.Values()[u] {
				t.Fatalf("shard %d vertex %d: PR %v != %v (bitwise)", i, u, v.PR, ref.Values()[u].PR)
			}
		}
	}
}

func TestShardedSSSPBitIdentical(t *testing.T) {
	g := graph.WithRandomWeights(graph.RMAT(8, 4, 0.45, 0.25, 0.2, true, 11), 1, 100, 19)
	ref, refStats, err := RunSSSP(g, 0, RunOptions{Workers: shardTestWorkers, Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := runSharded2(t, g.Fingerprint(), func(i int, tr transport.Transport) ([]SSSPState, error) {
		e, st, err := RunSSSP(g, 0, shardOpts(i, tr))
		if err != nil {
			return nil, err
		}
		requireSameStats(t, fmt.Sprintf("shard %d", i), st, refStats)
		return e.Values(), nil
	})
	for i, vals := range outs {
		for u, v := range vals {
			if v != ref.Values()[u] {
				t.Fatalf("shard %d vertex %d: dist %v != %v (bitwise)", i, u, v.Dist, ref.Values()[u].Dist)
			}
		}
	}
}

func TestShardedCCBitIdentical(t *testing.T) {
	g := graph.WattsStrogatz(300, 6, 0.1, 23)
	ref, refStats, err := RunCC(g, RunOptions{Workers: shardTestWorkers, Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := runSharded2(t, g.Fingerprint(), func(i int, tr transport.Transport) ([]CCState, error) {
		e, st, err := RunCC(g, shardOpts(i, tr))
		if err != nil {
			return nil, err
		}
		requireSameStats(t, fmt.Sprintf("shard %d", i), st, refStats)
		return e.Values(), nil
	})
	for i, vals := range outs {
		for u, v := range vals {
			if v != ref.Values()[u] {
				t.Fatalf("shard %d vertex %d: comp %d != %d", i, u, v.Comp, ref.Values()[u].Comp)
			}
		}
	}
}
