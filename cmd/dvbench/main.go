// Command dvbench regenerates the paper's evaluation tables and figures on
// the synthetic stand-in datasets, and snapshots the engine's
// message-plane micro-benchmarks.
//
// Usage:
//
//	dvbench -exp table1|table2|fig4|fig5|delta|ablations|pregel|memory|shard|all [-runs N]
//	dvbench -exp pregel -json BENCH_pregel.json -label before|after
//	dvbench -exp memory -scale 20,22 -json BENCH_memory.json
//	dvbench -exp shard -scale 14 -json BENCH_shard.json
//	dvbench -exp fig4 -cpuprofile cpu.out -memprofile mem.out
//	dvbench -exp fig4 -timeout 30s
//
// A -timeout bounds the whole invocation; SIGINT (Ctrl-C) cancels it. In
// both cases the current run aborts at its next superstep barrier and
// dvbench exits 1 with the abort reason. An abort in the middle of the
// suite no longer discards finished work: every experiment renders the
// rows it completed before the abort, followed by an "ABORTED:" marker,
// and the remaining experiments are still attempted (each marking its own
// abort). Likewise pregel micro-benchmark rows measured before the abort
// keep their numbers and the remainder carry an abort_reason marker in the
// JSON snapshot.
//
// Output is plain text, one block per table/figure, with the ΔV / ΔV★ /
// Pregel+ rows of each experiment and a ratio summary for Figure 4. The
// pregel experiment emits engine micro-benchmark rows (ns/op, B/op,
// allocs/op) and, with -json, merges them into a labelled snapshot file so
// before/after engine changes stay diffable in-repo. The -cpuprofile and
// -memprofile flags write pprof profiles of the paper-table runs for
// `go tool pprof`.
//
// The memory experiment loads R-MAT graphs (scales from the
// comma-separated -scale list) from DVGRAF files in all three graph
// representations — flat CSR, compact gap-varint CSR, mmap-backed — runs
// ΔV PageRank and SSSP over each, and reports structural bytes per arc,
// peak RSS over the load+run window, and ns per superstep, with
// flat-vs-compact ratio lines. With -json the rows land in
// BENCH_memory.json. Like pregel, it is excluded from "all".
//
// The shard experiment runs PageRank, SSSP, and CC in-process and split
// into two shards meshed over a unix socket (the dvshard wire path),
// reporting wall clock, wire traffic, and a value digest that must match
// between the two configurations. With -json the rows land in
// BENCH_shard.json. Like pregel and memory, it is excluded from "all".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig4, fig5, delta, ablations, pregel, memory, shard, all")
	runs := flag.Int("runs", 3, "runs to average for timing experiments (paper: 3)")
	scale := flag.String("scale", "", "comma-separated R-MAT scales for -exp memory (default 20,22) or -exp shard (default 14)")
	jsonPath := flag.String("json", "", "write pregel, memory, or shard benchmark results to this JSON snapshot file")
	label := flag.String("label", "after", "snapshot label for -json (conventionally before/after)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	scales, err := parseScales(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(2)
	}

	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(ctx, *exp, *runs, scales, *jsonPath, *label)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
}

// profiled wraps fn with optional CPU and heap profiling so paper-table
// runs can be inspected with `go tool pprof`.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize a settled heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// parseScales parses the -scale list; empty means the experiment default.
func parseScales(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > 30 {
			return nil, fmt.Errorf("bad -scale entry %q (want an integer in 1..30)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(ctx context.Context, exp string, runs int, scales []int, jsonPath, label string) error {
	out := os.Stdout
	want := func(name string) bool { return exp == "all" || exp == name }
	any := false

	// An abort inside one experiment must not discard the others: the rows
	// completed before the abort are rendered with a marker, the remaining
	// experiments still run (and typically mark their own abort immediately,
	// since they share ctx), and the first abort error decides the exit code.
	var firstErr error
	aborted := func(err error) {
		fmt.Fprintf(out, "ABORTED: %v — rows above are the measurements completed before the abort\n\n", err)
		if firstErr == nil {
			firstErr = err
		}
	}

	if want("table1") {
		any = true
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Table 1: datasets ==")
		if err := bench.RenderTable1(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("table2") {
		any = true
		rows, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Table 2: vertex-state size ==")
		if err := bench.RenderTable2(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("fig4") {
		any = true
		rows, err := bench.Figure4(ctx, runs)
		if rerr := bench.RenderPerf(out, "Figure 4: runtime and messages (directed datasets)", rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		} else {
			if err := bench.RenderSummary(out, bench.Summarize(rows)); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if want("fig5") {
		any = true
		rows, err := bench.Figure5(ctx, runs)
		if rerr := bench.RenderPerf(out, "Figure 5: Connected Components (undirected datasets)", rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		}
	}
	if want("delta") {
		any = true
		rows, err := bench.DeltaRecompute(ctx, runs)
		fmt.Fprintln(out, "== Streaming delta: full rerun vs delta-recompute ==")
		if rerr := bench.RenderDelta(out, rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		}
	}
	if want("ablations") {
		any = true
		const ds = "livejournal-dg-s"
		// Each step returns (abort error, render error); the first abort
		// marks the block and skips the remaining ablations, which share the
		// cancelled ctx and could only add empty tables.
		steps := []func() (error, error){
			func() (error, error) {
				mt, err := bench.AblationMemoTable(ctx, ds, runs)
				return err, bench.RenderMemoTable(out, mt)
			},
			func() (error, error) {
				eps, err := bench.AblationEpsilon(ctx, ds, []float64{0, 1e-9, 1e-6, 1e-4, 1e-3})
				return err, bench.RenderEpsilon(out, ds, eps)
			},
			func() (error, error) {
				sched, err := bench.AblationScheduler(ctx, ds, runs)
				return err, bench.RenderScheduler(out, sched)
			},
			func() (error, error) {
				comb, err := bench.AblationCombiner(ctx, ds, runs)
				return err, bench.RenderCombiner(out, comb)
			},
		}
		for _, step := range steps {
			abortErr, renderErr := step()
			if renderErr != nil {
				return renderErr
			}
			fmt.Fprintln(out)
			if abortErr != nil {
				aborted(abortErr)
				break
			}
		}
	}
	if exp == "pregel" { // excluded from "all": it re-times the engine for ~10s
		any = true
		rows := bench.PregelMicro(ctx)
		fmt.Fprintln(out, "== Engine micro-benchmarks: message plane ==")
		if err := bench.RenderMicro(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if jsonPath != "" {
			if err := bench.WriteMicroSnapshot(jsonPath, label, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "snapshot %q written to %s\n", label, jsonPath)
			if err := bench.RenderMicroDelta(out, jsonPath); err != nil {
				return err
			}
		}
	}
	if exp == "memory" { // excluded from "all": generates multi-GB graphs
		any = true
		rows, err := bench.MemoryExperiment(ctx, scales, runs)
		fmt.Fprintln(out, "== Memory: graph representation axis (R-MAT, dV PageRank/SSSP) ==")
		if rerr := bench.RenderMemory(out, rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		} else {
			if err := bench.RenderMemorySummary(out, bench.SummarizeMemory(rows)); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if jsonPath != "" {
				if err := bench.WriteMemorySnapshot(jsonPath, rows); err != nil {
					return err
				}
				fmt.Fprintf(out, "memory snapshot written to %s\n", jsonPath)
			}
		}
	}
	if exp == "shard" { // excluded from "all": spins up socket meshes
		any = true
		shardScale := 14
		if len(scales) > 0 {
			shardScale = scales[0]
		}
		rows, err := bench.ShardExperiment(ctx, shardScale, runs)
		fmt.Fprintln(out, "== Sharded message plane: in-process vs 2 shards over a unix socket ==")
		if rerr := bench.RenderShard(out, rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		} else if jsonPath != "" {
			if err := bench.WriteShardSnapshot(jsonPath, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "shard snapshot written to %s\n", jsonPath)
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return firstErr
}
