// Command dvrun compiles a ΔV program and executes it on a graph,
// reporting run statistics and (optionally) result values.
//
// Usage:
//
//	dvrun [-mode dv|dvstar|memotable] (-program name | -file prog.dv)
//	      (-dataset name | -edges file [-directed] | -gen spec [-seed n])
//	      [-graph-format auto|el|dvg] [-repr flat|compact|mmap]
//	      [-save-graph out.dvg]
//	      [-param k=v]... [-workers N] [-queue] [-combine] [-epsilon e]
//	      [-show field] [-top N] [-trace] [-timeout d]
//	      [-checkpoint-dir dir [-checkpoint-every N] [-checkpoint-incremental]]
//	      [-resume snapshot-or-chain-dir]
//	      [-mutations log.dvdelta [-warm-start snapshot]]
//
// Exactly one graph source (-dataset, -edges or -gen) must be given;
// conflicting sources are an error. Generator specs: rmat:scale:edgefactor,
// ba:n:k, er:n:m, grid:rows:cols, ws:n:k:beta (Watts–Strogatz small world).
//
// -edges accepts a text edge list or a binary DVGRAF graph file;
// -graph-format pins the interpretation (auto sniffs the DVGRAF magic, so
// .dvg files just work). -repr picks the in-memory representation: flat
// CSR, compact (gap-varint adjacency, ~4x smaller on power-law graphs), or
// mmap (page the compact sections straight from a DVGRAF file; requires
// one). After loading, dvrun prints a "graph: n=… arcs=… repr=… bytes=…"
// line so the resident adjacency footprint is visible in every run.
// -save-graph writes the loaded graph as DVGRAF and may be used without a
// program to convert an edge list or generator output into a .dvg file.
//
// A -timeout bounds the whole run; SIGINT (Ctrl-C) cancels it. In both
// cases the run aborts at its next superstep barrier, dvrun prints the
// statistics accumulated so far with an "aborted:" line (and, with -trace,
// the completed per-superstep rows), and exits 1.
//
// -checkpoint-dir enables barrier snapshots: one snap-NNNNNN.dvsnap file
// per checkpointed superstep (every -checkpoint-every supersteps, plus a
// final snapshot at the terminal barrier and on any abort). The freshest
// snapshot path and its superstep are printed as a "checkpoint:" line.
// With -checkpoint-incremental the directory instead holds a checkpoint
// chain: a full base snapshot, then one compact DVSNPD delta record per
// barrier (rebased periodically), so steady-state checkpoint bytes scale
// with what a superstep touched rather than with graph size.
// -resume continues a run from a snapshot file or from such a chain
// directory (the chain is replayed to its tip; a chain that also carries
// mutation logs replays them over the loaded graph, checking the
// fingerprint the chain recorded after each) — the same program, mode,
// params, graph and scheduler flags must be given (the graph fingerprint
// and scheduler are validated) — executing only the remaining supersteps.
//
// -mutations applies a streaming edge-mutation log (see graph.ReadDeltaLog
// for the text format: add/del/set/addv lines) to the loaded graph
// before running. On its own this re-runs the program from scratch on the
// mutated graph. Adding -warm-start snapshot instead performs a
// delta-recomputation warm restart: the snapshot must be the terminal
// checkpoint of a converged run on the pre-mutation graph, and only the
// contributions invalidated by the mutations are retracted, re-injected
// and propagated. -warm-start requires -mutations and conflicts with
// -resume.
//
// Examples:
//
//	dvrun -program pagerank -dataset wikipedia-s
//	dvrun -program sssp -gen grid:50:50 -param src=0 -show dist -top 5
//	dvrun -program pagerank -gen rmat:20:16 -timeout 10s -trace
//	dvrun -gen rmat:22:16 -save-graph rmat22.dvg
//	dvrun -program pagerank -edges rmat22.dvg -repr mmap
//	dvrun -program sssp -gen grid:50:50 -param src=0 -checkpoint-dir ck
//	dvrun -program sssp -gen grid:50:50 -param src=0 \
//	      -mutations edits.dvdelta -warm-start ck/snap-000102.dvsnap
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// flagVals holds the parsed flag values; registerFlags binds them onto a
// FlagSet so tests can enumerate the registered flags and check them
// against the doc comment above.
type flagVals struct {
	mode, progName, file string
	dataset, edges, gen  string
	graphFormat, repr    string
	saveGraph            string
	directed             bool
	seed                 int64
	workers              int
	queue, combine       bool
	trace                bool
	epsilon              float64
	show                 string
	top                  int
	timeout              time.Duration
	ckptDir              string
	ckptEvery            int
	ckptIncremental      bool
	resume               string
	mutations            string
	warmStart            string
	params               cli.ParamFlags
}

func registerFlags(fs *flag.FlagSet) *flagVals {
	v := &flagVals{params: cli.ParamFlags{}}
	fs.StringVar(&v.mode, "mode", "dv", "compile mode: dv, dvstar, memotable")
	fs.StringVar(&v.progName, "program", "", "embedded program name")
	fs.StringVar(&v.file, "file", "", "ΔV source file")
	fs.StringVar(&v.dataset, "dataset", "", "stand-in dataset name")
	fs.StringVar(&v.edges, "edges", "", "edge-list file")
	fs.BoolVar(&v.directed, "directed", true, "treat -edges input as directed")
	fs.StringVar(&v.gen, "gen", "", "generator spec (rmat:scale:ef, ba:n:k, er:n:m, grid:r:c, ws:n:k:beta)")
	fs.StringVar(&v.graphFormat, "graph-format", "auto", "-edges file format: auto (sniff), el (text edge list), dvg (DVGRAF binary)")
	fs.StringVar(&v.repr, "repr", "flat", "in-memory graph representation: flat, compact, mmap (mmap needs a DVGRAF -edges file)")
	fs.StringVar(&v.saveGraph, "save-graph", "", "write the loaded graph to this DVGRAF (.dvg) file")
	fs.Int64Var(&v.seed, "seed", 1, "generator seed")
	fs.IntVar(&v.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&v.queue, "queue", false, "use the work-queue (halt-by-default) scheduler")
	fs.BoolVar(&v.combine, "combine", true, "enable message combiners")
	fs.BoolVar(&v.trace, "trace", false, "print per-superstep statistics")
	fs.Float64Var(&v.epsilon, "epsilon", 0, "allowable-slop ε (§9)")
	fs.StringVar(&v.show, "show", "", "print this field's values")
	fs.IntVar(&v.top, "top", 10, "how many values to print with -show")
	fs.DurationVar(&v.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&v.ckptDir, "checkpoint-dir", "", "write barrier snapshots into this directory")
	fs.IntVar(&v.ckptEvery, "checkpoint-every", 0, "periodic snapshot interval in supersteps (0 = final/abort snapshots only)")
	fs.BoolVar(&v.ckptIncremental, "checkpoint-incremental", false, "write the checkpoints as an incremental chain (base + DVSNPD delta records) instead of full snapshots")
	fs.StringVar(&v.resume, "resume", "", "resume from a snapshot file or a -checkpoint-incremental chain directory")
	fs.StringVar(&v.mutations, "mutations", "", "apply this edge-mutation log (add/del/set/addv) to the graph before running")
	fs.StringVar(&v.warmStart, "warm-start", "", "delta-recompute from this converged pre-mutation snapshot (needs -mutations)")
	fs.Var(v.params, "param", "program parameter override, name=value (repeatable)")
	return v
}

func (v *flagVals) config() runConfig {
	return runConfig{
		mode: v.mode, progName: v.progName, file: v.file,
		dataset: v.dataset, edges: v.edges, directed: v.directed, gen: v.gen, seed: v.seed,
		graphFormat: v.graphFormat, repr: v.repr, saveGraph: v.saveGraph,
		workers: v.workers, queue: v.queue, combine: v.combine,
		epsilon: v.epsilon, show: v.show, top: v.top, trace: v.trace,
		timeout: v.timeout, ckptDir: v.ckptDir, ckptEvery: v.ckptEvery,
		ckptIncremental: v.ckptIncremental,
		resume:          v.resume, mutations: v.mutations, warmStart: v.warmStart, params: v.params,
	}
}

func main() {
	vals := registerFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, vals.config()); err != nil {
		fmt.Fprintln(os.Stderr, "dvrun:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	mode, progName, file string
	dataset, edges, gen  string
	graphFormat, repr    string
	saveGraph            string
	directed             bool
	seed                 int64
	workers              int
	queue, combine       bool
	epsilon              float64
	show                 string
	top                  int
	trace                bool
	timeout              time.Duration
	ckptDir              string
	ckptEvery            int
	ckptIncremental      bool
	resume               string
	mutations            string
	warmStart            string
	params               cli.ParamFlags
}

func run(ctx context.Context, cfg runConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	var src string
	switch {
	case cfg.progName != "":
		s, err := programs.Source(cfg.progName)
		if err != nil {
			return err
		}
		src = s
	case cfg.file != "":
		b, err := os.ReadFile(cfg.file)
		if err != nil {
			return err
		}
		src = string(b)
	case cfg.saveGraph != "":
		// Conversion-only invocation: load the graph, save it as DVGRAF,
		// run nothing.
	default:
		return fmt.Errorf("need -program or -file")
	}

	var mode core.Mode
	switch cfg.mode {
	case "dv":
		mode = core.Incremental
	case "dvstar":
		mode = core.Baseline
	case "memotable":
		mode = core.MemoTable
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}

	if cfg.warmStart != "" && cfg.mutations == "" {
		return fmt.Errorf("-warm-start needs -mutations: a warm restart repairs the effect of a mutation log")
	}
	if cfg.warmStart != "" && cfg.resume != "" {
		return fmt.Errorf("-warm-start and -resume are mutually exclusive")
	}

	g, err := cli.GraphSource{
		Dataset: cfg.dataset, Edges: cfg.edges, Gen: cfg.gen, Directed: cfg.directed, Seed: cfg.seed,
		Format: cfg.graphFormat, Repr: cfg.repr,
	}.Load()
	if err != nil {
		return err
	}
	defer g.Close()
	// The memory line of record: resident adjacency bytes in the chosen
	// representation, printed before anything else can inflate them.
	fmt.Printf("graph: n=%d arcs=%d repr=%s bytes=%d\n",
		g.NumVertices(), g.NumArcs(), g.Repr(), g.ArcBytes())
	if cfg.saveGraph != "" {
		if err := graph.WriteGraphFile(cfg.saveGraph, g); err != nil {
			return err
		}
		fmt.Printf("saved: %s\n", cfg.saveGraph)
		if src == "" {
			return nil
		}
	}
	var applied *graph.AppliedDelta
	if cfg.mutations != "" {
		d, err := graph.ReadDeltaLogFile(cfg.mutations)
		if err != nil {
			return err
		}
		g, applied, err = graph.ApplyDelta(g, d)
		if err != nil {
			return err
		}
	}
	prog, err := core.Compile(src, core.Options{Mode: mode, Epsilon: cfg.epsilon})
	if err != nil {
		return err
	}

	sched := pregel.ScanAll
	if cfg.queue {
		sched = pregel.WorkQueue
	}

	if cfg.ckptEvery > 0 && cfg.ckptDir == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
	}
	if cfg.ckptIncremental && cfg.ckptDir == "" {
		return fmt.Errorf("-checkpoint-incremental needs -checkpoint-dir")
	}
	var ckpt pregel.CheckpointOptions
	if cfg.ckptDir != "" {
		if err := os.MkdirAll(cfg.ckptDir, 0o755); err != nil {
			return err
		}
		ckpt = pregel.CheckpointOptions{Every: cfg.ckptEvery, Dir: cfg.ckptDir, Incremental: cfg.ckptIncremental}
	}
	var resumeSnap *pregel.Snapshot
	if cfg.resume != "" {
		if pregel.IsChainDir(cfg.resume) {
			st, err := pregel.LoadChain(cfg.resume)
			if err != nil {
				return err
			}
			// A chain written by dvserve also carries mutation logs; replay
			// them so the tip snapshot meets the graph it was taken on.
			if g, err = st.Replay(g); err != nil {
				return err
			}
			resumeSnap = st.Snapshot
			fmt.Printf("resume: chain %s (superstep %d, %d records, %d mutation logs)\n",
				cfg.resume, st.Snapshot.Superstep, len(st.Entries), len(st.GraphDeltas))
		} else {
			resumeSnap, err = pregel.ReadSnapshotFile(cfg.resume)
			if err != nil {
				return err
			}
		}
	}

	runOpts := vm.RunOptions{
		Params:     cfg.params,
		Workers:    cfg.workers,
		Scheduler:  sched,
		Combine:    cfg.combine,
		Checkpoint: ckpt,
	}
	var res *vm.Result
	var runErr error
	if cfg.warmStart != "" {
		// Fail fast at the CLI boundary when the mutation log grew the
		// vertex set and the program cannot repair growth in place (its
		// init{} bakes in the graph size, say) — the size mismatch would
		// otherwise surface as a confusing decode error deep inside the
		// warm restore. Repairable programs proceed: the new vertices are
		// initialized and primed by the delta run itself.
		if applied != nil && applied.NewVertices > 0 {
			if cv := prog.Repairability().Verdict(core.DeltaVertexAdd); cv.Cap != core.Repairable {
				return fmt.Errorf("%w: -mutations added %d vertices but %s; drop -warm-start to rerun from scratch",
					pregel.ErrSnapshotMismatch, applied.NewVertices, cv.Reason)
			}
		}
		snap, err := pregel.ReadSnapshotFile(cfg.warmStart)
		if err != nil {
			return err
		}
		res, runErr = vm.RunDeltaContext(ctx, prog, g, vm.DeltaRunOptions{
			RunOptions: runOpts,
			Snapshot:   snap,
			Changes:    applied,
		})
	} else if resumeSnap != nil {
		res, runErr = vm.ResumeContext(ctx, prog, g, runOpts, resumeSnap)
	} else {
		res, runErr = vm.RunContext(ctx, prog, g, runOpts)
	}
	if res == nil {
		return runErr
	}

	fmt.Printf("graph:        %s\n", g)
	if applied != nil {
		start := "from scratch"
		if cfg.warmStart != "" {
			start = "delta-recompute from " + cfg.warmStart
		}
		fmt.Printf("mutations:    %d arc changes, %d new vertices (%s)\n",
			len(applied.Arcs), applied.NewVertices, start)
	}
	fmt.Printf("mode:         %s (state %d bytes/vertex)\n", mode, prog.Layout.ByteSize())
	fmt.Printf("supersteps:   %d\n", res.Stats.Supersteps)
	fmt.Printf("iterations:   %v\n", res.Iterations)
	fmt.Printf("messages:     %d sent, %d delivered after combining (%d cross-worker)\n",
		res.Stats.MessagesSent, res.Stats.CombinedMessages, res.Stats.CrossWorker)
	fmt.Printf("bytes:        %d\n", res.Stats.MessageBytes)
	fmt.Printf("active total: %d vertex executions\n", res.Stats.TotalActive)
	fmt.Printf("wall time:    %v\n", res.Stats.Duration)
	if res.Stats.Aborted {
		fmt.Printf("aborted:      %s\n", res.Stats.AbortReason)
	}
	if res.Stats.CheckpointPath != "" {
		fmt.Printf("checkpoint:   %s (superstep %d)\n", res.Stats.CheckpointPath, res.Stats.CheckpointSuperstep)
	}
	if res.NonMonotoneSends > 0 {
		fmt.Printf("WARNING: %d non-monotone Δ-messages (min/max accumulators may be stale)\n", res.NonMonotoneSends)
	}
	if cfg.trace {
		fmt.Println("superstep  active     sent       delivered  cross      time")
		for _, st := range res.Stats.Steps {
			fmt.Printf("%-10d %-10d %-10d %-10d %-10d %v\n",
				st.Superstep, st.ActiveVertices, st.MessagesSent, st.CombinedMessages, st.CrossWorker, st.Duration)
		}
	}
	if runErr != nil {
		return runErr
	}

	if cfg.show != "" {
		show, top := cfg.show, cfg.top
		vals, err := res.FieldVector(show)
		if err != nil {
			return err
		}
		type pair struct {
			u uint32
			v float64
		}
		pairs := make([]pair, len(vals))
		for u, v := range vals {
			pairs[u] = pair{uint32(u), v}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v > pairs[j].v })
		if top > len(pairs) {
			top = len(pairs)
		}
		fmt.Printf("top %d by %s:\n", top, show)
		for _, p := range pairs[:top] {
			fmt.Printf("  vertex %-8d %g\n", p.u, p.v)
		}
	}
	return nil
}
