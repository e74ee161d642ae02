package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/graph"
)

// runShards runs n dvrun shards as goroutines over a fresh unix-socket
// mesh: shard i gets args, then its -shard and -peers, then extra(i). It
// returns what each shard printed and its error.
func runShards(t *testing.T, n int, args []string, extra func(i int) []string) ([]string, []error) {
	t.Helper()
	dir := t.TempDir()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	outs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		shardArgs := with(args, "-shard", fmt.Sprintf("%d/%d", i, n), "-peers", strings.Join(peers, ","))
		if extra != nil {
			shardArgs = append(shardArgs, extra(i)...)
		}
		f := parse(t, shardArgs...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			errs[i] = run(context.Background(), f, &out)
			outs[i] = out.String()
		}()
	}
	wg.Wait()
	return outs, errs
}

// mustRunShards is runShards for runs that must succeed on every shard.
func mustRunShards(t *testing.T, n int, args []string, extra func(i int) []string) []string {
	t.Helper()
	outs, errs := runShards(t, n, args, extra)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v\n%s", i, err, outs[i])
		}
	}
	return outs
}

// lineOf returns the output line that starts with prefix.
func lineOf(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return ""
}

// sameRun fails unless every shard printed ref's supersteps, messages and
// -show block.
func sameRun(t *testing.T, ref string, outs []string) {
	t.Helper()
	for i, out := range outs {
		for _, prefix := range []string{"supersteps:", "messages:"} {
			if got, want := lineOf(t, out, prefix), lineOf(t, ref, prefix); got != want {
				t.Errorf("shard %d: %q, in-process %q", i, got, want)
			}
		}
		if got, want := topBlock(t, out), topBlock(t, ref); got != want {
			t.Errorf("shard %d values differ from the in-process run:\ngot:\n%swant:\n%s", i, got, want)
		}
	}
}

// TestShardedRunMatchesInProcess: two dvrun shards print the in-process
// run's counts and every value, bit for bit, for the corpus programs in
// the modes their aggregations take.
func TestShardedRunMatchesInProcess(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"pagerank-dv", []string{"-program", "pagerank", "-gen", "rmat:9:8", "-seed", "3", "-show", "vl"}},
		{"sssp-dv", []string{"-program", "sssp", "-gen", "grid:12:15", "-param", "src=5", "-show", "dist"}},
		{"sssp-memotable", []string{"-mode", "memotable", "-program", "sssp", "-gen", "grid:12:15", "-param", "src=5", "-show", "dist"}},
		{"cc-memotable", []string{"-mode", "memotable", "-program", "cc", "-gen", "ba:500:3", "-seed", "7", "-show", "cid"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := with(tc.args, "-workers", "4", "-top", "1000000")
			ref := mustRun(t, args...)
			outs := mustRunShards(t, 2, args, nil)
			sameRun(t, ref, outs)
			for i, out := range outs {
				if !strings.Contains(out, fmt.Sprintf("shard:        %d/2, wire ", i)) {
					t.Errorf("shard %d prints no wire line:\n%s", i, out)
				}
			}
		})
	}
}

// TestShardedCheckpointResume: each shard keeps its own checkpoint chain.
// Both shards restarted from their records of the same mid-run superstep
// print the uninterrupted in-process run; restarted from the record each
// printed, its chain's terminal tip, they have nothing left to run.
func TestShardedCheckpointResume(t *testing.T) {
	for _, prog := range [][]string{
		{"-program", "pagerank", "-gen", "rmat:9:8", "-seed", "5", "-show", "vl"},
		{"-mode", "memotable", "-program", "sssp", "-gen", "grid:12:15", "-param", "src=5", "-show", "dist"},
	} {
		t.Run(prog[len(prog)-1], func(t *testing.T) {
			args := with(prog, "-workers", "4", "-top", "1000000")
			ref := mustRun(t, args...)
			S := superstepsOf(t, ref)
			dirs := [2]string{t.TempDir(), t.TempDir()}
			full := mustRunShards(t, 2, with(args, "-checkpoint-every", "1"), func(i int) []string {
				return []string{"-checkpoint-dir", dirs[i]}
			})
			sameRun(t, ref, full)

			k := S / 2
			for _, resume := range []struct {
				left int
				from func(i int) string
			}{
				{S - (k + 1), func(i int) string { return recordOf(t, dirs[i], k) }},
				{0, func(i int) string { return checkpointPathFrom(full[i]) }},
			} {
				left := resume.left
				outs := mustRunShards(t, 2, args, func(i int) []string { return []string{"-resume", resume.from(i)} })
				for i, out := range outs {
					if got := superstepsOf(t, out); got != left {
						t.Errorf("shard %d resumed with %d supersteps left ran %d", i, left, got)
					}
					if got, want := topBlock(t, out), topBlock(t, ref); got != want {
						t.Errorf("shard %d resumed values differ from the uninterrupted run:\ngot:\n%swant:\n%s", i, got, want)
					}
				}
			}
		})
	}
}

// TestShardedWarmStart: every shard handed the in-process terminal
// snapshot and the same mutation log repairs to the in-process warm
// start's counts and values.
func TestShardedWarmStart(t *testing.T) {
	el := writeEdgeList(t, graph.Path(120, true))
	args := []string{"-program", "sssp", "-edges", el, "-workers", "4",
		"-show", "dist", "-top", "1000", "-param", "src=0"}
	snap := checkpointPathFrom(mustRun(t, with(args, "-checkpoint-dir", t.TempDir())...))
	mut := filepath.Join(t.TempDir(), "edits.dvdelta")
	if err := os.WriteFile(mut, []byte("add 0 90\nadd 50 0\naddv 1\nadd 119 120\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := with(args, "-mutations", mut, "-resume", snap)
	sameRun(t, mustRun(t, warm...), mustRunShards(t, 2, warm, nil))
}

// TestShardedRunValidation: a sharded run that cannot form its mesh, or
// whose shards disagree, fails naming the flag at fault.
func TestShardedRunValidation(t *testing.T) {
	base := []string{"-program", "pagerank", "-gen", "grid:4:4"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no_workers", []string{"-shard", "0/2", "-peers", "unix:a,unix:b"}, "-workers"},
		{"bad_shard", []string{"-workers", "2", "-shard", "2/2", "-peers", "unix:a,unix:b"}, "-shard"},
		{"shard_syntax", []string{"-workers", "2", "-shard", "a/b", "-peers", "unix:a,unix:b"}, "-shard"},
		{"peer_count", []string{"-workers", "2", "-shard", "0/2", "-peers", "unix:a"}, "-peers"},
		{"no_peers", []string{"-workers", "2", "-shard", "0/2"}, "-peers"},
		{"no_graph", []string{"-program", "pagerank", "-gen", "", "-workers", "2", "-shard", "0/1", "-peers", "unix:a"}, "need one of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runArgs(t, with(base, tc.args...)...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %s", err, tc.want)
			}
		})
	}
	// Shards that differ only in a parameter refuse each other at the
	// hello, before superstep 0.
	t.Run("mismatched_config", func(t *testing.T) {
		outs, errs := runShards(t, 2, with(base, "-program", "sssp", "-workers", "2"), func(i int) []string {
			return []string{"-param", fmt.Sprintf("src=%d", i)}
		})
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "-peers") || !strings.Contains(err.Error(), "fingerprint") {
				t.Errorf("shard %d: err = %v, want the -peers mesh's fingerprint refusal", i, err)
			}
			if strings.Contains(outs[i], "supersteps:") {
				t.Errorf("shard %d ran:\n%s", i, outs[i])
			}
		}
	})
}

// TestFingerprintSeparatesRuns: every flag that changes what a run
// computes, or how its workers split the graph, changes the fingerprint
// shards compare at the mesh hello; the order -param flags came in does
// not.
func TestFingerprintSeparatesRuns(t *testing.T) {
	g, err := cli.GraphSource{Gen: "grid:3:3", Seed: 1}.Load()
	if err != nil {
		t.Fatal(err)
	}
	base := []string{"-program", "sssp", "-workers", "2", "-param", "src=0", "-param", "x=1"}
	fp := func(src string, g *graph.Graph, args ...string) uint64 {
		return parse(t, with(base, args...)...).fingerprint(src, g)
	}
	ref := fp("prog", g)
	if got := parse(t, "-param", "x=1", "-param", "src=0", "-program", "sssp", "-workers", "2").fingerprint("prog", g); got != ref {
		t.Fatal("-param order changed the fingerprint")
	}
	g2, err := cli.GraphSource{Gen: "grid:3:3", Seed: 2}.Load()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]uint64{
		"graph":    fp("prog", g2),
		"source":   fp("prog2", g),
		"mode":     fp("prog", g, "-mode", "memotable"),
		"epsilon":  fp("prog", g, "-epsilon", "1e-9"),
		"param":    fp("prog", g, "-param", "src=1"),
		"workers":  fp("prog", g, "-workers", "3"),
		"queue":    fp("prog", g, "-queue"),
		"combine":  fp("prog", g, "-combine=false"),
		"newparam": fp("prog", g, "-param", "y=0"),
	} {
		if got == ref {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
}
