// Command dvrun compiles a ΔV program and executes it on a graph,
// reporting run statistics and (optionally) result values.
//
// Usage:
//
//	dvrun [-mode dv|dvstar|memotable] (-program name | -file prog.dv)
//	      (-dataset name | -edges file [-directed] | -gen spec [-seed n])
//	      [-repr flat|compact|mmap] [-save-graph out.dvg]
//	      [-param k=v]... [-workers N] [-queue] [-combine] [-epsilon e]
//	      [-show field] [-top N] [-trace] [-timeout d]
//	      [-checkpoint-dir dir [-checkpoint-every N]]
//	      [-resume checkpoint] [-mutations log.dvdelta]
//	      [-shard i/n -peers addr0,…,addrN-1]
//
// Exactly one graph source (-dataset, -edges or -gen) must be given;
// conflicting sources are an error. Generator specs: rmat:scale:edgefactor,
// ba:n:k, er:n:m, grid:rows:cols, ws:n:k:beta (Watts–Strogatz small world).
//
// -edges accepts a text edge list or a binary DVGRAF graph file, told
// apart by the DVGRAF magic, so .dvg files just work. -repr picks the
// in-memory representation: flat CSR, compact (gap-varint adjacency, ~4x
// smaller on power-law graphs), or mmap (page the compact sections
// straight from a DVGRAF file; requires one). After loading, dvrun prints a "graph: n=… arcs=… repr=… bytes=…"
// line so the resident adjacency footprint is visible in every run.
// -save-graph writes the loaded graph as DVGRAF and may be used without a
// program to convert an edge list or generator output into a .dvg file.
//
// A -timeout bounds the whole run; SIGINT (Ctrl-C) cancels it. In both
// cases the run aborts at its next superstep barrier, dvrun prints the
// statistics accumulated so far with an "aborted:" line (and, with -trace,
// the completed per-superstep rows), and exits 1.
//
// -checkpoint-dir enables barrier snapshots (every -checkpoint-every
// supersteps, plus a final snapshot at the terminal barrier and on any
// abort), kept as a checkpoint chain: a full base snapshot, then one
// compact DVSNPD delta record per barrier (rebased periodically), so
// steady-state checkpoint bytes scale with what a superstep touched rather
// than with graph size. A directory that already holds a chain is
// appended to. The freshest record's path and its superstep are printed as
// a "checkpoint:" line.
//
// The checkpoint -resume names is a chain directory (its tip) or one of a
// chain's records (the snapshot the chain had reached there: the printed
// path resumes); a file outside a chain is refused. A chain that also
// carries mutation logs, as dvserve's do, replays them over the loaded
// graph, checking the fingerprint the chain recorded after each. Without
// -mutations, -resume continues the run — the same program, mode, params,
// graph and scheduler flags must be given (the graph fingerprint and
// scheduler are validated) — executing only the remaining supersteps.
//
// -mutations applies a streaming edge-mutation log (see graph.ReadDeltaLog
// for the text format: add/del/set/addv lines) to the loaded graph
// before running. On its own this re-runs the program from scratch on the
// mutated graph. With -resume it performs a delta-recomputation warm
// restart instead: the checkpoint must be the terminal record of a
// converged run on the pre-mutation graph (a mid-run record is refused
// before any superstep), and only the contributions invalidated by the
// mutations are retracted, re-injected and propagated.
//
// -shard i/n with -peers runs this process as shard i of an n-process run:
// the processes mesh over the listed addresses (one per shard, in shard
// order: unix:PATH or tcp:HOST:PORT), each runs the workers of its own
// block of the graph, and every shard prints the superstep and message
// counts and the -show values of the in-process run with the same
// -workers, bit for bit.
// Every shard is started with the same program, graph and run flags and
// an explicit -workers (the total, not the shard's share); shards whose
// program, mode, ε, parameters, graph, workers, scheduler or combining
// differ refuse each other when the mesh forms. -checkpoint-dir then
// names this shard's own directory (each shard snapshots its vertex
// range), and -resume restarts every shard from a record of the same
// superstep in its own chain. A shard killed mid-run trails its peers by
// at most one committed record, so after a crash every shard resumes from
// the newest record name all their manifests list. That rule holds for
// chains started together: a resumed run appends after its chain's tip,
// so give a resumed mesh fresh -checkpoint-dir directories. -mutations
// works as in-process; with -resume, the warm start's checkpoint is the
// whole terminal checkpoint of an in-process run, handed to every shard.
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
//	      -mutations edits.dvdelta -resume ck
//	dvrun -program pagerank -gen rmat:12:8 -workers 4 -show vl \
//	      -shard 0/2 -peers unix:/tmp/s0.sock,unix:/tmp/s1.sock &
//	dvrun -program pagerank -gen rmat:12:8 -workers 4 -show vl \
//	      -shard 1/2 -peers unix:/tmp/s0.sock,unix:/tmp/s1.sock
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

// flags holds the parsed flag values: the front end every command
// shares, and dvrun's own. registerFlags binds them onto a FlagSet so
// tests can enumerate the registered flags and check them against the doc
// comment above.
type flags struct {
	*cli.Flags
	queue        bool // the work-queue scheduler
	combine      bool
	saveGraph    string
	trace        bool
	show         string
	top          int
	timeout      time.Duration
	ckptDir      string
	ckptEvery    int
	resume       string
	mutations    string
	shard, peers string
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{Flags: cli.Register(fs)}
	fs.BoolVar(&f.queue, "queue", false, "use the work-queue (halt-by-default) scheduler")
	fs.BoolVar(&f.combine, "combine", true, "enable message combiners")
	fs.StringVar(&f.saveGraph, "save-graph", "", "write the loaded graph to this DVGRAF (.dvg) file")
	fs.BoolVar(&f.trace, "trace", false, "print per-superstep statistics")
	fs.StringVar(&f.show, "show", "", "print this field's values")
	fs.IntVar(&f.top, "top", 10, "how many values to print with -show")
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.StringVar(&f.ckptDir, "checkpoint-dir", "", "keep barrier snapshots as a checkpoint chain in this directory")
	fs.IntVar(&f.ckptEvery, "checkpoint-every", 0, "periodic snapshot interval in supersteps (0 = final/abort snapshots only)")
	fs.StringVar(&f.resume, "resume", "", "start from a checkpoint, a chain directory or one of its records: continue the run, or with -mutations repair its converged state")
	fs.StringVar(&f.mutations, "mutations", "", "apply this edge-mutation log (add/del/set/addv) to the graph before running")
	fs.StringVar(&f.shard, "shard", "", "run as shard i of n processes, i/n (needs -peers and an explicit -workers)")
	fs.StringVar(&f.peers, "peers", "", "comma-separated mesh addresses, one per shard in shard order (unix:PATH or tcp:HOST:PORT)")
	return f
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, f, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvrun:", err)
		os.Exit(1)
	}
}

// check refuses flag combinations that cannot run, before any work.
func (f *flags) check() error {
	switch {
	case f.ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: want an interval in supersteps, 0 or more", f.ckptEvery)
	case f.ckptEvery > 0 && f.ckptDir == "":
		return fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
	case f.top < 0:
		return fmt.Errorf("-top %d: want a count of values, 0 or more", f.top)
	}
	return nil
}

// mesh resolves -shard and -peers into this process's endpoint of the
// shard mesh; nil when the run is not sharded.
func (f *flags) mesh() (*transport.SocketConfig, error) {
	if f.shard == "" && f.peers == "" {
		return nil, nil
	}
	if f.shard == "" || f.peers == "" {
		return nil, fmt.Errorf("-shard needs -peers, and -peers needs -shard")
	}
	is, ns, _ := strings.Cut(f.shard, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("-shard %q: want i/n with 0 <= i < n", f.shard)
	}
	peers := strings.Split(f.peers, ",")
	if len(peers) != n {
		return nil, fmt.Errorf("-peers lists %d addresses for -shard %s", len(peers), f.shard)
	}
	if f.Workers <= 0 {
		return nil, fmt.Errorf("-shard needs an explicit -workers: the total, the same on every shard")
	}
	return &transport.SocketConfig{Shard: i, Count: n, Addrs: peers}, nil
}

// scheduler is the engine scheduler -queue selects.
func (f *flags) scheduler() pregel.Scheduler {
	if f.queue {
		return pregel.WorkQueue
	}
	return pregel.ScanAll
}

// fingerprint identifies a run: g's fingerprint mixed with a hash of the
// program source and every flag that changes what the run computes or
// how its workers split the graph (mode, ε, the parameters in name
// order, workers, scheduler, combine). Shards of one run exchange it at
// the mesh hello, so shards configured differently refuse to start.
func (f *flags) fingerprint(src string, g *graph.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x %d:%s %s %x", g.Fingerprint(), len(src), src, f.Mode, math.Float64bits(f.Epsilon))
	names := make([]string, 0, len(f.Params))
	for k := range f.Params {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(h, " %s=%x", k, math.Float64bits(f.Params[k]))
	}
	fmt.Fprintf(h, " workers=%d sched=%d combine=%t", f.Workers, f.scheduler(), f.combine)
	return h.Sum64()
}

// run executes one dvrun invocation, writing its report to out.
func run(ctx context.Context, f *flags, out io.Writer) error {
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	if err := f.check(); err != nil {
		return err
	}
	mesh, err := f.mesh()
	if err != nil {
		return err
	}
	// -save-graph without a program only converts the graph.
	var prog *core.Program
	var src string
	if f.ProgName != "" || f.File != "" || f.saveGraph == "" {
		if prog, src, err = f.Compile(); err != nil {
			return err
		}
		if f.show != "" && prog.Layout.Slot(f.show) < 0 {
			return fmt.Errorf("-show: %w %q", vm.ErrUnknownField, f.show)
		}
	}

	g, err := f.Graph.Load()
	if err != nil {
		return err
	}
	defer g.Close()
	// The memory line of record: resident adjacency bytes in the chosen
	// representation, printed before anything else can inflate them.
	fmt.Fprintf(out, "graph: n=%d arcs=%d repr=%s bytes=%d\n",
		g.NumVertices(), g.NumArcs(), g.Repr(), g.ArcBytes())
	if f.saveGraph != "" {
		if err := graph.WriteGraphFile(f.saveGraph, g); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved: %s\n", f.saveGraph)
		if prog == nil {
			return nil
		}
	}
	var snap *pregel.Snapshot
	if f.resume != "" {
		if snap, g, err = loadCheckpoint(f.resume, g, out); err != nil {
			return err
		}
	}
	var applied *graph.AppliedDelta
	if f.mutations != "" {
		d, err := graph.ReadDeltaLogFile(f.mutations)
		if err != nil {
			return err
		}
		if g, applied, err = graph.ApplyDelta(g, d); err != nil {
			return err
		}
	}
	// -resume with -mutations is a warm start: the checkpoint is the
	// converged state the mutations are repaired into. vm.RunDelta refuses
	// a mid-run record, and growth the program cannot repair in place,
	// before any superstep.
	warm := snap != nil && applied != nil

	runOpts := vm.RunOptions{
		Params:    f.Params,
		Workers:   f.Workers,
		Scheduler: f.scheduler(),
		Combine:   f.combine,
	}
	if f.ckptDir != "" {
		runOpts.Checkpoint = pregel.CheckpointOptions{Every: f.ckptEvery, Dir: f.ckptDir}
	}
	var tr *transport.Socket
	if mesh != nil {
		// The hello compares the graph and run configuration, so shards
		// started differently fail here rather than compute apart.
		mesh.Fingerprint = f.fingerprint(src, g)
		if tr, err = transport.DialMesh(*mesh); err != nil {
			return fmt.Errorf("forming the -peers mesh: %w", err)
		}
		defer tr.Close()
		runOpts.Shard = &pregel.ShardOptions{Index: mesh.Shard, Count: mesh.Count, Transport: tr}
	}

	var res *vm.Result
	var runErr error
	switch {
	case warm:
		res, runErr = vm.RunDeltaContext(ctx, prog, g, vm.DeltaRunOptions{
			RunOptions: runOpts,
			Snapshot:   snap,
			Changes:    applied,
		})
	case snap != nil:
		res, runErr = vm.ResumeContext(ctx, prog, g, runOpts, snap)
	default:
		res, runErr = vm.RunContext(ctx, prog, g, runOpts)
	}
	if res == nil {
		return runErr
	}

	fmt.Fprintf(out, "graph:        %s\n", g)
	if applied != nil {
		start := "from scratch"
		if warm {
			start = "delta-recompute from " + f.resume
		}
		fmt.Fprintf(out, "mutations:    %d arc changes, %d new vertices (%s)\n",
			len(applied.Arcs), applied.NewVertices, start)
	}
	fmt.Fprintf(out, "mode:         %s (state %d bytes/vertex)\n", prog.Mode, prog.Layout.ByteSize())
	fmt.Fprintf(out, "supersteps:   %d\n", res.Stats.Supersteps)
	fmt.Fprintf(out, "iterations:   %v\n", res.Iterations)
	fmt.Fprintf(out, "messages:     %d sent, %d delivered after combining (%d cross-worker)\n",
		res.Stats.MessagesSent, res.Stats.CombinedMessages, res.Stats.CrossWorker)
	fmt.Fprintf(out, "bytes:        %d\n", res.Stats.MessageBytes)
	fmt.Fprintf(out, "active total: %d vertex executions\n", res.Stats.TotalActive)
	fmt.Fprintf(out, "wall time:    %v\n", res.Stats.Duration)
	if tr != nil {
		fo, bo, fi, bi := tr.Counters()
		fmt.Fprintf(out, "shard:        %s, wire %d frames %d B out, %d frames %d B in\n", f.shard, fo, bo, fi, bi)
	}
	if res.Stats.Aborted {
		fmt.Fprintf(out, "aborted:      %s\n", res.Stats.AbortReason)
	}
	if res.Stats.CheckpointPath != "" {
		fmt.Fprintf(out, "checkpoint:   %s (superstep %d)\n", res.Stats.CheckpointPath, res.Stats.CheckpointSuperstep)
	}
	if res.NonMonotoneSends > 0 {
		fmt.Fprintf(out, "WARNING: %d non-monotone Δ-messages (min/max accumulators may be stale)\n", res.NonMonotoneSends)
	}
	if f.trace {
		fmt.Fprintln(out, "superstep  active     sent       delivered  cross      time")
		for _, st := range res.Stats.Steps {
			fmt.Fprintf(out, "%-10d %-10d %-10d %-10d %-10d %v\n",
				st.Superstep, st.ActiveVertices, st.MessagesSent, st.CombinedMessages, st.CrossWorker, st.Duration)
		}
	}
	if runErr != nil {
		return runErr
	}
	if f.show != "" {
		vals, err := res.FieldVector(f.show)
		if err != nil {
			return err
		}
		showTop(out, vals, f.show, f.top)
	}
	return nil
}

// loadCheckpoint reads the snapshot -resume names — a chain directory (its
// tip) or one of a chain's records (that point) — and returns it with g
// advanced by the chain's mutation logs to the graph the snapshot was
// taken on. The chain's load is reported on out.
func loadCheckpoint(path string, g *graph.Graph, out io.Writer) (*pregel.Snapshot, *graph.Graph, error) {
	st, err := pregel.LoadChain(path)
	if err != nil {
		return nil, nil, err
	}
	if g, err = st.Replay(g); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "resume: chain %s (superstep %d, %d records, %d mutation logs)\n",
		path, st.Snapshot.Superstep, len(st.Entries), len(st.GraphDeltas))
	return st.Snapshot, g, nil
}

// showTop prints the top values of field, largest first, in Go's shortest
// round-trip %g: two runs agree bit for bit when the blocks are equal. NaNs
// come last, and equal values (−0 and +0 among them) in vertex order.
func showTop(out io.Writer, vals []float64, field string, top int) {
	type pair struct {
		u uint32
		v float64
	}
	pairs := make([]pair, len(vals))
	for u, v := range vals {
		pairs[u] = pair{uint32(u), v}
	}
	// cmp.Compare orders NaN below every number, so comparing b to a puts
	// NaNs last.
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(cmp.Compare(b.v, a.v), cmp.Compare(a.u, b.u))
	})
	top = min(top, len(pairs))
	fmt.Fprintf(out, "top %d by %s:\n", top, field)
	for _, p := range pairs[:top] {
		fmt.Fprintf(out, "  vertex %-8d %g\n", p.u, p.v)
	}
}
