// Command dvbench regenerates the paper's evaluation tables and figures on
// the synthetic stand-in datasets: Table 1, Table 2, Figure 4, Figure 5
// and the ablations that EXPERIMENTS.md prints.
//
// Usage:
//
//	dvbench -exp table1|table2|fig4|fig5|ablations|all [-runs N]
//	dvbench -exp fig4 -cpuprofile cpu.out -memprofile mem.out
//	dvbench -exp fig4 -timeout 30s
//
// An unknown -exp is a usage error: dvbench lists the experiments and exits
// 2 before running any of them.
//
// A -timeout bounds the whole invocation; SIGINT (Ctrl-C) cancels it. In
// both cases the current run aborts at its next superstep barrier and
// dvbench exits 1 with the abort reason. An abort in the middle of the
// suite does not discard finished work: every experiment renders the
// rows it completed before the abort, followed by an "ABORTED:" marker,
// and the remaining experiments are still attempted (each marking its own
// abort).
//
// Output is plain text, one block per table/figure, with the ΔV / ΔV★ /
// Pregel+ rows of each experiment and a ratio summary for Figure 4. The
// -cpuprofile and -memprofile flags write pprof profiles of the
// paper-table runs for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
)

// experiments are the -exp values; "all" runs the other five in order.
var experiments = []string{"table1", "table2", "fig4", "fig5", "ablations", "all"}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	runs := flag.Int("runs", 3, "runs to average for timing experiments (paper: 3)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	flag.Parse()

	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(ctx, os.Stdout, *exp, *runs)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
}

// checkExperiment rejects an -exp value that names no experiment.
func checkExperiment(exp string) error {
	if !slices.Contains(experiments, exp) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, strings.Join(experiments, ", "))
	}
	return nil
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

func run(ctx context.Context, out io.Writer, exp string, runs int) error {
	if err := checkExperiment(exp); err != nil {
		return err
	}
	want := func(name string) bool { return exp == "all" || exp == name }

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
		rows, err := bench.Figure5(ctx, runs)
		if rerr := bench.RenderPerf(out, "Figure 5: Connected Components (undirected datasets)", rows); rerr != nil {
			return rerr
		}
		fmt.Fprintln(out)
		if err != nil {
			aborted(err)
		}
	}
	if want("ablations") {
		ds := bench.AblationDataset
		// Each step returns (abort error, render error); the first abort
		// marks the block and skips the remaining ablations, which share the
		// cancelled ctx and could only add empty tables.
		steps := []func() (error, error){
			func() (error, error) {
				mt, err := bench.AblationMemoTable(ctx, ds, runs)
				return err, bench.RenderMemoTable(out, mt)
			},
			func() (error, error) {
				eps, err := bench.AblationEpsilon(ctx, ds, bench.AblationEpsilons)
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
	return firstErr
}
