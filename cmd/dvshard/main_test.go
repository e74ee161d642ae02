package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseCfg builds a config from CLI-style arguments, exercising the
// same flag wiring main uses.
func parseCfg(t *testing.T, args ...string) *config {
	t.Helper()
	fs := flag.NewFlagSet("dvshard", flag.ContinueOnError)
	cfg := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cfg
}

// runPair runs two shards of the given configuration concurrently and
// returns their summary lines.
func runPair(t *testing.T, mkArgs func(shard int) []string) [2]string {
	t.Helper()
	var out [2]bytes.Buffer
	errs := [2]error{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(context.Background(), parseCfg(t, mkArgs(i)...), &out[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v\n%s", i, err, out[i].String())
		}
	}
	return [2]string{out[0].String(), out[1].String()}
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTwoShardsMatchSingleProcess(t *testing.T) {
	for _, algo := range []string{"pagerank", "sssp", "cc"} {
		t.Run(algo, func(t *testing.T) {
			dir := t.TempDir()
			base := []string{
				"-gen", "rmat:9:8", "-workers", "4", "-algo", algo, "-seed", "3",
				"-mesh-timeout", "10s",
			}
			// Single-process reference over the count-1 socket mesh.
			refDump := filepath.Join(dir, "ref.txt")
			var refOut bytes.Buffer
			refArgs := append([]string{
				"-shards", "1", "-addrs", "unix:" + filepath.Join(dir, "ref.sock"),
				"-dump", refDump,
			}, base...)
			if err := run(context.Background(), parseCfg(t, refArgs...), &refOut); err != nil {
				t.Fatalf("reference run: %v", err)
			}
			// The same run split across two engines.
			addrs := "unix:" + filepath.Join(dir, "s0.sock") + ",unix:" + filepath.Join(dir, "s1.sock")
			outs := runPair(t, func(i int) []string {
				return append([]string{
					"-shard", string(rune('0' + i)), "-shards", "2", "-addrs", addrs,
					"-dump", filepath.Join(dir, "sh"+string(rune('0'+i))+".txt"),
				}, base...)
			})
			ref := readFileT(t, refDump)
			for i := 0; i < 2; i++ {
				got := readFileT(t, filepath.Join(dir, "sh"+string(rune('0'+i))+".txt"))
				if got != ref {
					t.Fatalf("shard %d dump differs from the single-process run", i)
				}
				if !strings.Contains(outs[i], "shard "+string(rune('0'+i))+"/2") {
					t.Fatalf("shard %d summary: %q", i, outs[i])
				}
			}
		})
	}
}

func TestShardCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-gen", "rmat:9:8", "-workers", "4", "-algo", "pagerank", "-seed", "5",
		"-mesh-timeout", "10s",
	}
	addrs := "unix:" + filepath.Join(dir, "s0.sock") + ",unix:" + filepath.Join(dir, "s1.sock")
	shardArgs := func(i int, extra ...string) []string {
		return append(append([]string{
			"-shard", string(rune('0' + i)), "-shards", "2", "-addrs", addrs,
		}, extra...), base...)
	}

	// Reference: uninterrupted single-process run.
	refDump := filepath.Join(dir, "ref.txt")
	var sink bytes.Buffer
	refArgs := append([]string{
		"-shards", "1", "-addrs", "unix:" + filepath.Join(dir, "ref.sock"), "-dump", refDump,
	}, base...)
	if err := run(context.Background(), parseCfg(t, refArgs...), &sink); err != nil {
		t.Fatal(err)
	}

	// Phase 1: both shards stop at superstep 6, each snapshotting its own
	// vertex range — the same cut a crash at that barrier leaves behind.
	ckpt := [2]string{filepath.Join(dir, "d0"), filepath.Join(dir, "d1")}
	errs := [2]error{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out bytes.Buffer
			errs[i] = run(context.Background(), parseCfg(t,
				shardArgs(i, "-checkpoint-dir", ckpt[i], "-checkpoint-every", "1", "-max-supersteps", "6")...), &out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "superstep limit") {
			t.Fatalf("shard %d: err = %v, want superstep limit", i, err)
		}
	}

	// Phase 2: restart both shards from their own latest snapshots
	// (-resume accepts the directory) and land on the reference bitwise.
	outs := runPair(t, func(i int) []string {
		return shardArgs(i, "-resume", ckpt[i], "-dump", filepath.Join(dir, "r"+string(rune('0'+i))+".txt"))
	})
	_ = outs
	ref := readFileT(t, refDump)
	for i := 0; i < 2; i++ {
		if got := readFileT(t, filepath.Join(dir, "r"+string(rune('0'+i))+".txt")); got != ref {
			t.Fatalf("resumed shard %d dump differs from the uninterrupted run", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no workers", []string{"-gen", "grid:4:4", "-shards", "1", "-addrs", "unix:/tmp/x.sock"}, "-workers"},
		{"bad shard", []string{"-gen", "grid:4:4", "-workers", "2", "-shard", "3", "-shards", "2"}, "bad -shard"},
		{"no graph", []string{"-workers", "2", "-shards", "1", "-addrs", "unix:/tmp/x.sock"}, "need one of"},
		{"addr count", []string{"-gen", "grid:4:4", "-workers", "2", "-shards", "2", "-addrs", "unix:/tmp/x.sock"}, "-addrs lists"},
		{"bad algo", []string{"-gen", "grid:4:4", "-workers", "2", "-shards", "1", "-addrs", "unix:/tmp/a.sock", "-algo", "nope"}, "unknown -algo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parseCfg(t, tc.args...)
			cfg.meshTimeout = 2 * time.Second
			var out bytes.Buffer
			err := run(context.Background(), cfg, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
