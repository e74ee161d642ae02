package pregel

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pregel/transport"
)

// The sharded proof: a run split across S engines connected by the
// socket transport must be bit-identical — values, aggregators, merged
// statistics, superstep count — to an in-process run with the same
// total worker count, because the partition math and every float fold
// order are preserved (stub workers keep the global worker iteration
// order). These tests host the shards as goroutines of one process
// over a real unix-socket mesh; dvrun -shard i/n -peers is the
// multi-process CLI.

// shardVal exercises float accumulation so any fold-order divergence
// shows up as a bit difference.
type shardVal struct{ Score float64 }

// massProgram spreads weighted mass for a fixed number of rounds and
// folds every vertex's score into a sum aggregator each superstep.
type massProgram struct{ rounds int }

// massAgg is the id of "mass", the only aggregator massEngine registers.
const massAgg = 0

func (p *massProgram) Init(ctx *Context[shardVal, float64]) {
	ctx.Value().Score = 1 + float64(ctx.ID()%7)*0.125
	ctx.Aggregate(massAgg, ctx.Value().Score)
	p.spread(ctx)
}

func (p *massProgram) Compute(ctx *Context[shardVal, float64], msgs []float64) {
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	ctx.Value().Score = 0.2*ctx.Value().Score + 0.8*sum
	ctx.Aggregate(massAgg, ctx.Value().Score)
	if ctx.Superstep() < p.rounds {
		p.spread(ctx)
	} else {
		ctx.VoteToHalt()
	}
}

func (p *massProgram) spread(ctx *Context[shardVal, float64]) {
	if d := ctx.OutDegree(); d > 0 {
		ctx.BroadcastOut(ctx.Value().Score / float64(d))
	}
}

func massEngine(g *graph.Graph, opts Options, combine bool) *Engine[shardVal, float64] {
	e := New[shardVal, float64](g, opts)
	if combine {
		e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
	}
	if _, err := e.RegisterAggregator("mass", AggSum, false); err != nil {
		panic(err)
	}
	return e
}

func shardAddrs(t *testing.T, count int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	return addrs
}

// shardOutcome is one shard's view of a sharded run.
type shardOutcome[V any] struct {
	eng   *Engine[V, float64]
	stats *Stats
	err   error
}

// runMassSharded runs the mass program across count shards; see runSharded.
func runMassSharded(t *testing.T, g *graph.Graph, base Options, combine bool, rounds, count int,
	perShard func(shard int, o *Options), ctxOf func(shard int) context.Context) []shardOutcome[shardVal] {
	t.Helper()
	return runSharded(t, g, base, count, perShard, ctxOf,
		func(o Options) *Engine[shardVal, float64] { return massEngine(g, o, combine) },
		func() Program[shardVal, float64] { return &massProgram{rounds: rounds} })
}

// runSharded runs a program across count shards over a unix-socket mesh,
// one goroutine per shard. perShard tweaks each shard's options
// (checkpoint dir, seed); ctxOf supplies each shard's run context. Either
// may be nil.
func runSharded[V any](t *testing.T, g *graph.Graph, base Options, count int,
	perShard func(shard int, o *Options), ctxOf func(shard int) context.Context,
	engine func(Options) *Engine[V, float64], prog func() Program[V, float64]) []shardOutcome[V] {
	t.Helper()
	addrs := shardAddrs(t, count)
	out := make([]shardOutcome[V], count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: count, Addrs: addrs,
				Fingerprint: g.Fingerprint(), Timeout: 10 * time.Second,
			})
			if err != nil {
				out[i] = shardOutcome[V]{err: fmt.Errorf("dial: %w", err)}
				return
			}
			defer tr.Close()
			o := base
			o.Shard = &ShardOptions{Index: i, Count: count, Transport: tr}
			if perShard != nil {
				perShard(i, &o)
			}
			e := engine(o)
			ctx := context.Background()
			if ctxOf != nil {
				ctx = ctxOf(i)
			}
			st, err := e.RunContext(ctx, prog())
			out[i] = shardOutcome[V]{eng: e, stats: st, err: err}
		}(i)
	}
	wg.Wait()
	return out
}

func requireBitIdentical(t *testing.T, label string, got, want []shardVal) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: vertex %d = %v, want %v (bitwise)", label, u, got[u].Score, want[u].Score)
		}
	}
}

// TestShardedRunBitIdenticalToLocal is the core equivalence claim, over
// even and uneven worker splits, both schedulers, and the combiner.
func TestShardedRunBitIdenticalToLocal(t *testing.T) {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
	const rounds = 5
	cases := []struct {
		name            string
		workers, shards int
		sched           Scheduler
		combine         bool
	}{
		{"2x2-scan", 4, 2, ScanAll, false},
		{"2x2-scan-combine", 4, 2, ScanAll, true},
		{"2x2-queue", 4, 2, WorkQueue, false},
		{"3x5-uneven-scan-combine", 5, 3, ScanAll, true},
		{"3x5-uneven-queue", 5, 3, WorkQueue, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: tc.workers, Scheduler: tc.sched}
			ref := massEngine(g, opts, tc.combine)
			refStats, err := ref.Run(&massProgram{rounds: rounds})
			if err != nil {
				t.Fatal(err)
			}
			outs := runMassSharded(t, g, opts, tc.combine, rounds, tc.shards, nil, nil)
			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("shard %d: %v", i, o.err)
				}
				requireBitIdentical(t, fmt.Sprintf("shard %d", i), o.eng.Values(), ref.Values())
				if got, want := o.eng.AggregatorValue("mass"), ref.AggregatorValue("mass"); got != want {
					t.Fatalf("shard %d: mass aggregator = %v, want %v (bitwise)", i, got, want)
				}
				if o.stats.Supersteps != refStats.Supersteps ||
					o.stats.MessagesSent != refStats.MessagesSent ||
					o.stats.CombinedMessages != refStats.CombinedMessages ||
					o.stats.CrossWorker != refStats.CrossWorker ||
					o.stats.TotalActive != refStats.TotalActive {
					t.Fatalf("shard %d merged stats diverge:\n got %v\nwant %v", i, o.stats, refStats)
				}
				lo, hi := o.eng.ShardOwnedRange()
				if lo < 0 || hi < lo || hi > g.NumVertices() {
					t.Fatalf("shard %d owns bad range [%d, %d)", i, lo, hi)
				}
			}
		})
	}
}

// TestShardCheckpointResumeEquivalence kills a sharded run at every
// barrier and resumes it from the per-shard snapshots: MaxSupersteps=k
// is a deterministic, symmetric abort at barrier k (each shard captures
// superstep k-1), exactly the cut a crash-at-barrier leaves behind. The
// resumed run must land bit-identical to the uninterrupted reference.
func TestShardCheckpointResumeEquivalence(t *testing.T) {
	g := graph.RMAT(7, 4, 0.45, 0.25, 0.2, true, 9)
	const workers, shards, rounds = 4, 2, 5
	opts := Options{Workers: workers}
	ref := massEngine(g, opts, true)
	refStats, err := ref.Run(&massProgram{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < refStats.Supersteps; k++ {
		t.Run(fmt.Sprintf("kill-at-barrier-%d", k), func(t *testing.T) {
			dirs := make([]string, shards)
			for i := range dirs {
				dirs[i] = t.TempDir()
			}
			// Phase 1: run to barrier k and stop — every shard writes its
			// own snapshot of superstep k-1, then the limit aborts the run.
			outs := runMassSharded(t, g, opts, true, rounds, shards, func(i int, o *Options) {
				o.MaxSupersteps = k
				o.Checkpoint = CheckpointOptions{Dir: dirs[i]}
			}, nil)
			for i, o := range outs {
				if o.err == nil || !strings.Contains(o.err.Error(), "superstep limit") {
					t.Fatalf("shard %d: err = %v, want superstep limit", i, o.err)
				}
				if o.stats.CheckpointSuperstep != k-1 {
					t.Fatalf("shard %d captured superstep %d, want %d", i, o.stats.CheckpointSuperstep, k-1)
				}
			}
			// Phase 2: restart both shards from their own snapshots.
			snaps := make([]*Snapshot, shards)
			for i := range snaps {
				s, err := ReadSnapshotFile(filepath.Join(dirs[i], SnapshotFileName(k-1)))
				if err != nil {
					t.Fatalf("shard %d snapshot: %v", i, err)
				}
				snaps[i] = s
			}
			outs = runMassSharded(t, g, opts, true, rounds, shards, func(i int, o *Options) {
				o.Seed = Continue(snaps[i])
			}, nil)
			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("resumed shard %d: %v", i, o.err)
				}
				requireBitIdentical(t, fmt.Sprintf("resumed shard %d", i), o.eng.Values(), ref.Values())
				if got, want := o.eng.AggregatorValue("mass"), ref.AggregatorValue("mass"); got != want {
					t.Fatalf("resumed shard %d: mass = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestShardedWarmStartBitIdenticalToLocal: a warm start composes with
// sharding because nothing special-cases it. Every shard is handed the
// same whole terminal snapshot and frontier; the repair wave crosses
// worker and shard boundaries; values, merged statistics and the
// first-superstep frontier must match the in-process warm start bit for
// bit, under both schedulers and an uneven worker split.
func TestShardedWarmStartBitIdenticalToLocal(t *testing.T) {
	g := graph.RMAT(8, 4, 0.57, 0.19, 0.19, true, 42)
	d := &graph.Delta{}
	d.AddEdge(0, 200)
	d.AddEdge(0, 77)
	d.AddEdge(130, 5)
	mg, ad, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	frontier := ad.Touched(g.NumVertices())
	for _, tc := range []struct {
		name            string
		workers, shards int
		sched           Scheduler
	}{
		{"2x4-scan", 4, 2, ScanAll},
		{"2x4-queue", 4, 2, WorkQueue},
		{"3x5-uneven-scan", 5, 3, ScanAll},
		{"3x5-uneven-queue", 5, 3, WorkQueue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, _, _ := terminalSnapshot(t, g, ScanAll)
			opts := Options{
				Workers:   tc.workers,
				Scheduler: tc.sched,
				Seed:      Warm(snap, frontier, g.Fingerprint(), false),
			}
			engine := func(o Options) *Engine[wsVal, float64] {
				e := New[wsVal, float64](mg, o)
				e.SetCombiner(CombinerFunc[float64](math.Min))
				return e
			}
			ref := engine(opts)
			refStats, err := ref.Run(wsProgram{})
			if err != nil {
				t.Fatal(err)
			}
			if refStats.Supersteps < 3 || refStats.CrossWorker == 0 {
				t.Fatalf("reference repair too small to cross shards: %v", refStats)
			}
			outs := runSharded(t, mg, opts, tc.shards, nil, nil, engine,
				func() Program[wsVal, float64] { return wsProgram{} })
			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("shard %d: %v", i, o.err)
				}
				for u, want := range ref.Values() {
					if got := o.eng.Value(VertexID(u)); math.Float64bits(got.D) != math.Float64bits(want.D) {
						t.Fatalf("shard %d: vertex %d = %v, want %v (bitwise)", i, u, got.D, want.D)
					}
				}
				if o.stats.Supersteps != refStats.Supersteps ||
					o.stats.MessagesSent != refStats.MessagesSent ||
					o.stats.CombinedMessages != refStats.CombinedMessages ||
					o.stats.CrossWorker != refStats.CrossWorker ||
					o.stats.TotalActive != refStats.TotalActive ||
					o.stats.Steps[0].ActiveVertices != refStats.Steps[0].ActiveVertices {
					t.Fatalf("shard %d merged stats diverge:\n got %v\nwant %v", i, o.stats, refStats)
				}
			}
		})
	}
}

// TestShardMismatchedResumeRejected: shards resuming from different
// supersteps must fail at the first barrier, not silently diverge.
func TestShardMismatchedResumeRejected(t *testing.T) {
	g := graph.RMAT(6, 4, 0.5, 0.2, 0.2, true, 3)
	opts := Options{Workers: 4}
	dirs := []string{t.TempDir(), t.TempDir()}
	outs := runMassSharded(t, g, opts, false, 5, 2, func(i int, o *Options) {
		o.MaxSupersteps = 3
		o.Checkpoint = CheckpointOptions{Dir: dirs[i], Every: 1}
	}, nil)
	for i, o := range outs {
		if o.err == nil {
			t.Fatalf("shard %d: want superstep-limit error", i)
		}
	}
	// Shard 0 resumes from superstep 1, shard 1 from superstep 2.
	outs = runMassSharded(t, g, opts, false, 5, 2, func(i int, o *Options) {
		s, err := ReadSnapshotFile(filepath.Join(dirs[i], SnapshotFileName(1+i)))
		if err != nil {
			t.Fatal(err)
		}
		o.Seed = Continue(s)
	}, nil)
	sawMismatch := false
	for i, o := range outs {
		if o.err == nil {
			t.Fatalf("shard %d: mismatched resume succeeded", i)
		}
		if strings.Contains(o.err.Error(), "superstep") {
			sawMismatch = true
		}
	}
	if !sawMismatch {
		t.Fatalf("no shard reported the superstep mismatch: %v / %v", outs[0].err, outs[1].err)
	}
}

// TestShardAbortPropagates: a shard aborting locally (cancelled context)
// must take its peer down with an attributed error instead of hanging it.
func TestShardAbortPropagates(t *testing.T) {
	g := graph.RMAT(6, 4, 0.5, 0.2, 0.2, true, 5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	outs := runMassSharded(t, g, Options{Workers: 4}, false, 50, 2, nil, func(i int) context.Context {
		if i == 0 {
			return cancelled
		}
		return context.Background()
	})
	if outs[0].err == nil || !strings.Contains(outs[0].err.Error(), "context canceled") {
		t.Fatalf("shard 0 err = %v, want context canceled", outs[0].err)
	}
	if outs[1].err == nil {
		t.Fatal("shard 1 completed despite peer abort")
	}
	if !strings.Contains(outs[1].err.Error(), "shard 0") {
		t.Fatalf("shard 1 err = %v, want attribution to shard 0", outs[1].err)
	}
	if outs[1].stats == nil || !outs[1].stats.Aborted {
		t.Fatalf("shard 1 stats = %+v, want Aborted", outs[1].stats)
	}
}

// TestShardPanicPropagates: a vertex panic on one shard hard-aborts the
// whole mesh at the next barrier.
func TestShardPanicPropagates(t *testing.T) {
	g := graph.Path(64, true)
	addrs := shardAddrs(t, 2)
	errs := make([]error, 2)
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
			e := New[shardVal, float64](g, Options{
				Workers: 4,
				Shard:   &ShardOptions{Index: i, Count: 2, Transport: tr},
			})
			// Vertex 40 lives on shard 1 and panics at superstep 1.
			_, errs[i] = e.Run(&shardPanicProgram{vertex: 40, superstep: 1})
		}(i)
	}
	wg.Wait()
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "boom") {
		t.Fatalf("panicking shard err = %v, want the recovered panic", errs[1])
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "shard 1") {
		t.Fatalf("peer err = %v, want attribution to shard 1", errs[0])
	}
}

type shardPanicProgram struct {
	vertex    VertexID
	superstep int
}

func (p *shardPanicProgram) Init(ctx *Context[shardVal, float64]) {
	ctx.BroadcastOut(1)
}

func (p *shardPanicProgram) Compute(ctx *Context[shardVal, float64], msgs []float64) {
	if ctx.ID() == p.vertex && ctx.Superstep() == p.superstep {
		panic("boom")
	}
	ctx.BroadcastOut(1)
}

// TestShardOptionValidation pins the unsupported-configuration errors.
func TestShardOptionValidation(t *testing.T) {
	g := graph.Path(16, true)
	run := func(o Options) error {
		e := New[shardVal, float64](g, o)
		_, err := e.Run(&massProgram{rounds: 1})
		return err
	}
	tr := transport.NewLocal()
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"no transport", Options{Workers: 4, Shard: &ShardOptions{Index: 0, Count: 2}}, "transport"},
		{"bad index", Options{Workers: 4, Shard: &ShardOptions{Index: 2, Count: 2, Transport: tr}}, "bad shard"},
		{"quarantine", Options{Workers: 4, Quarantine: true, Shard: &ShardOptions{Index: 0, Count: 2, Transport: tr}}, "Quarantine"},
		{"more shards than workers", Options{Workers: 2, Shard: &ShardOptions{Index: 0, Count: 3, Transport: tr}}, "shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestUnshardedShardAccessors: the degenerate single-shard accessors.
func TestUnshardedShardAccessors(t *testing.T) {
	g := graph.Path(16, true)
	e := massEngine(g, Options{Workers: 2}, false)
	if _, err := e.Run(&massProgram{rounds: 1}); err != nil {
		t.Fatal(err)
	}
	if idx, count := e.ShardInfo(); idx != 0 || count != 1 {
		t.Fatalf("ShardInfo = %d, %d", idx, count)
	}
	if lo, hi := e.ShardOwnedRange(); lo != 0 || hi != 16 {
		t.Fatalf("ShardOwnedRange = [%d, %d)", lo, hi)
	}
	got, err := e.ShardAllGather([]byte("x"))
	if err != nil || len(got) != 1 || string(got[0]) != "x" {
		t.Fatalf("ShardAllGather = %q, %v", got, err)
	}
}

// TestShardedCount1OverSocket: dvrun -shard 0/1 — one shard on
// a socket transport — behaves exactly like an unsharded run.
func TestShardedCount1OverSocket(t *testing.T) {
	g := graph.RMAT(6, 4, 0.5, 0.2, 0.2, true, 21)
	addrs := shardAddrs(t, 1)
	tr, err := transport.DialMesh(transport.SocketConfig{
		Shard: 0, Count: 1, Addrs: addrs, Fingerprint: g.Fingerprint(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ref := massEngine(g, Options{Workers: 4}, true)
	if _, err := ref.Run(&massProgram{rounds: 4}); err != nil {
		t.Fatal(err)
	}
	e := massEngine(g, Options{Workers: 4, Shard: &ShardOptions{Index: 0, Count: 1, Transport: tr}}, true)
	if _, err := e.Run(&massProgram{rounds: 4}); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "count-1 socket", e.Values(), ref.Values())
}
