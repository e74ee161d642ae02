// Command dvshard hosts one shard of a multi-process vertex-centric
// run: it owns a contiguous block of the graph's worker ranges, swaps
// messages with its peer shards over the socket transport at every
// superstep barrier, and lands on results bit-identical to a
// single-process run with the same total worker count.
//
// A two-process PageRank over a unix-socket mesh:
//
//	dvshard -shard 0 -shards 2 -addrs /tmp/s0.sock,/tmp/s1.sock \
//	        -gen rmat:12:8 -workers 4 -algo pagerank -dump sh0.txt &
//	dvshard -shard 1 -shards 2 -addrs /tmp/s0.sock,/tmp/s1.sock \
//	        -gen rmat:12:8 -workers 4 -algo pagerank -dump sh1.txt
//
// Every shard loads the same graph (same -gen/-edges and -seed),
// runs the same algorithm with the same explicit -workers count, and
// differs only in -shard. After a successful run every shard holds the
// full value vector, so the dumps are identical across shards and
// interchangeable with a -shards 1 run for diffing.
//
// With -checkpoint-dir each shard snapshots its own vertex range at
// barriers; after a crash, restart every shard with -resume pointing at
// snapshots of the SAME superstep (a common snapshot across all shard
// directories) and the run continues from that barrier.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

type config struct {
	shard, shards int
	addrs         string
	workers       int
	algo          string
	iters         int
	source        int
	gen           string
	edges         string
	directed      bool
	seed          int64
	queue         bool
	combine       bool
	dump          string
	ckptDir       string
	ckptEvery     int
	resume        string
	maxSupersteps int
	timeout       time.Duration
	meshTimeout   time.Duration
}

func registerFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.IntVar(&c.shard, "shard", 0, "this process's shard index, in [0, -shards)")
	fs.IntVar(&c.shards, "shards", 1, "total shard count (1 = single-process baseline)")
	fs.StringVar(&c.addrs, "addrs", "", "comma-separated listen addresses, one per shard (unix:PATH or tcp:HOST:PORT)")
	fs.IntVar(&c.workers, "workers", 0, "TOTAL worker count across all shards (required, identical on every shard)")
	fs.StringVar(&c.algo, "algo", "pagerank", "algorithm: pagerank, sssp, cc")
	fs.IntVar(&c.iters, "iters", 20, "pagerank iterations")
	fs.IntVar(&c.source, "source", 0, "sssp source vertex")
	fs.StringVar(&c.gen, "gen", "", "generator spec (rmat:scale:ef, ba:n:k, er:n:m, grid:r:c, ws:n:k:beta)")
	fs.StringVar(&c.edges, "edges", "", "edge-list or DVGRAF file (must be identical on every shard)")
	fs.BoolVar(&c.directed, "directed", true, "treat -edges/-gen input as directed")
	fs.Int64Var(&c.seed, "seed", 1, "generator seed")
	fs.BoolVar(&c.queue, "queue", false, "use the work-queue (halt-by-default) scheduler")
	fs.BoolVar(&c.combine, "combine", true, "enable message combiners")
	fs.StringVar(&c.dump, "dump", "", "write per-vertex values (hex float bits) to this file")
	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "write this shard's barrier snapshots into this directory")
	fs.IntVar(&c.ckptEvery, "checkpoint-every", 0, "periodic snapshot interval in supersteps (0 = final/abort snapshots only)")
	fs.StringVar(&c.resume, "resume", "", "resume from this snapshot file, or the latest snapshot in this directory")
	fs.IntVar(&c.maxSupersteps, "max-supersteps", 0, "abort (with a snapshot when checkpointing) after this many supersteps (0 = no limit)")
	fs.DurationVar(&c.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.DurationVar(&c.meshTimeout, "mesh-timeout", 30*time.Second, "how long to wait for peer shards while forming the mesh")
	return c
}

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvshard:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg *config, out io.Writer) error {
	if cfg.workers <= 0 {
		return fmt.Errorf("-workers is required and must be explicit (every shard passes the same total)")
	}
	if cfg.shards < 1 || cfg.shard < 0 || cfg.shard >= cfg.shards {
		return fmt.Errorf("bad -shard %d of -shards %d", cfg.shard, cfg.shards)
	}
	g, err := cli.GraphSource{Edges: cfg.edges, Gen: cfg.gen, Directed: cfg.directed, Seed: cfg.seed}.Load()
	if err != nil {
		return err
	}

	addrs := strings.Split(cfg.addrs, ",")
	if cfg.addrs == "" {
		addrs = nil
	}
	if len(addrs) != cfg.shards {
		return fmt.Errorf("-addrs lists %d addresses for %d shards", len(addrs), cfg.shards)
	}
	tr, err := transport.DialMesh(transport.SocketConfig{
		Shard: cfg.shard, Count: cfg.shards, Addrs: addrs,
		Fingerprint: g.Fingerprint(), Timeout: cfg.meshTimeout,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	opts := algorithms.RunOptions{
		Workers: cfg.workers,
		Combine: cfg.combine,
		Ctx:     ctx,
		Shard:   &pregel.ShardOptions{Index: cfg.shard, Count: cfg.shards, Transport: tr},
	}
	if cfg.queue {
		opts.Scheduler = pregel.WorkQueue
	}
	if cfg.ckptDir != "" {
		if err := os.MkdirAll(cfg.ckptDir, 0o777); err != nil {
			return err
		}
		opts.Checkpoint = pregel.CheckpointOptions{Dir: cfg.ckptDir, Every: cfg.ckptEvery}
	}
	if cfg.resume != "" {
		snap, err := loadSnapshot(cfg.resume)
		if err != nil {
			return err
		}
		opts.Seed = pregel.Continue(snap)
	}
	opts.MaxSupersteps = cfg.maxSupersteps

	start := time.Now()
	vals, stats, err := runAlgo(g, cfg, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if cfg.dump != "" {
		if err := dumpValues(cfg.dump, vals); err != nil {
			return err
		}
	}
	fo, bo, fi, bi := tr.Counters()
	fmt.Fprintf(out, "dvshard: shard %d/%d algo=%s n=%d workers=%d supersteps=%d messages=%d digest=%016x wire=%d/%dB out %d/%dB in elapsed=%s\n",
		cfg.shard, cfg.shards, cfg.algo, g.NumVertices(), cfg.workers,
		stats.Supersteps, stats.MessagesSent, digest(vals), fo, bo, fi, bi, elapsed.Round(time.Millisecond))
	return nil
}

// runAlgo dispatches to the reference algorithm and flattens the final
// vertex values to float64s (every shard holds the full vector after
// the run's value gather).
func runAlgo(g *graph.Graph, cfg *config, opts algorithms.RunOptions) ([]float64, *pregel.Stats, error) {
	switch cfg.algo {
	case "pagerank":
		e, st, err := algorithms.RunPageRank(g, cfg.iters, opts)
		if err != nil {
			return nil, nil, err
		}
		vals := make([]float64, g.NumVertices())
		for u, v := range e.Values() {
			vals[u] = v.PR
		}
		return vals, st, nil
	case "sssp":
		e, st, err := algorithms.RunSSSP(g, graph.VertexID(cfg.source), opts)
		if err != nil {
			return nil, nil, err
		}
		vals := make([]float64, g.NumVertices())
		for u, v := range e.Values() {
			vals[u] = v.Dist
		}
		return vals, st, nil
	case "cc":
		e, st, err := algorithms.RunCC(g, opts)
		if err != nil {
			return nil, nil, err
		}
		vals := make([]float64, g.NumVertices())
		for u, v := range e.Values() {
			vals[u] = float64(v.Comp)
		}
		return vals, st, nil
	}
	return nil, nil, fmt.Errorf("unknown -algo %q (want pagerank, sssp or cc)", cfg.algo)
}

// loadSnapshot reads a snapshot file, or the highest-numbered
// snap-*.dvsnap in a directory. After a crash, restart all shards from
// snapshots of the same superstep — the first barrier rejects a
// mismatched resume.
func loadSnapshot(path string) (*pregel.Snapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		names, err := filepath.Glob(filepath.Join(path, "snap-*.dvsnap"))
		if err != nil || len(names) == 0 {
			return nil, fmt.Errorf("no snapshots in %s", path)
		}
		sort.Strings(names)
		path = names[len(names)-1]
	}
	return pregel.ReadSnapshotFile(path)
}

// dumpValues writes one "vertex hexbits" line per vertex. Hex float
// bits make the diff exact: two runs agree iff the files are identical.
func dumpValues(path string, vals []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for u, v := range vals {
		fmt.Fprintf(f, "%d %016x\n", u, math.Float64bits(v))
	}
	return f.Close()
}

// digest folds the value bits through FNV-1a for the one-line summary.
func digest(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
