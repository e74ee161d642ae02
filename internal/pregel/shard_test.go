package pregel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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

func shardAddrs(t testing.TB, count int) []string {
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
func runSharded[V any](t testing.TB, g *graph.Graph, base Options, count int,
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
		o.Seed = Continue(chainSnapshot(t, recordAt(t, dirs[i], 1+i)))
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

// noTransport stands in for a mesh that validation refuses before use.
type noTransport struct{ transport.Transport }

// TestShardOptionValidation pins the unsupported-configuration errors.
func TestShardOptionValidation(t *testing.T) {
	g := graph.Path(16, true)
	run := func(o Options) error {
		e := New[shardVal, float64](g, o)
		_, err := e.Run(&massProgram{rounds: 1})
		return err
	}
	var tr noTransport
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"no transport", Options{Workers: 4, Shard: &ShardOptions{Index: 0, Count: 2}}, "transport"},
		{"bad index", Options{Workers: 4, Shard: &ShardOptions{Index: 2, Count: 2, Transport: tr}}, "bad shard"},
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

// TestShardedCount1OverSocket: dvrun -shard 0/1 — one shard on
// a socket transport — is an unsharded run, which never touches the
// transport.
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

// poisonedMass is massProgram whose victims spread their mass and then
// panic, each at its own superstep, so a quarantined run must roll back
// sends on whichever shard owns the victim.
type poisonedMass struct {
	massProgram
	victims map[VertexID]int // vertex -> superstep it panics at
}

func (p *poisonedMass) Init(ctx *Context[shardVal, float64]) {
	p.massProgram.Init(ctx)
	p.poison(ctx)
}

func (p *poisonedMass) Compute(ctx *Context[shardVal, float64], msgs []float64) {
	p.massProgram.Compute(ctx, msgs)
	p.poison(ctx)
}

func (p *poisonedMass) poison(ctx *Context[shardVal, float64]) {
	if step, ok := p.victims[ctx.ID()]; ok && step == ctx.Superstep() {
		panic("poisoned")
	}
}

// TestShardContextAbortLeavesCut: cancelling one shard's context lets
// that superstep finish on every shard, which all snapshot the same
// barrier; resuming both shards from their snapshots lands bit-identical
// to the uninterrupted in-process run.
func TestShardContextAbortLeavesCut(t *testing.T) {
	g := graph.RMAT(7, 4, 0.45, 0.25, 0.2, true, 9)
	const workers, shards, rounds, cancelAt = 4, 2, 5, 2
	opts := Options{Workers: workers}
	ref := massEngine(g, opts, true)
	if _, err := ref.Run(&massProgram{rounds: rounds}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dirs := []string{t.TempDir(), t.TempDir()}
	engine := func(o Options) *Engine[shardVal, float64] {
		e := massEngine(g, o, true)
		if o.Shard.Index == 0 {
			e.SetMasterHook(func(mc *MasterContext) {
				if mc.Superstep() == cancelAt {
					cancel()
				}
			})
		}
		return e
	}
	outs := runSharded(t, g, opts, shards, func(i int, o *Options) {
		o.Checkpoint = CheckpointOptions{Dir: dirs[i]}
	}, func(i int) context.Context {
		if i == 0 {
			return ctx
		}
		return context.Background()
	}, engine, func() Program[shardVal, float64] { return &massProgram{rounds: rounds} })
	if outs[0].err == nil || !strings.Contains(outs[0].err.Error(), "context canceled") {
		t.Fatalf("shard 0 err = %v, want context canceled", outs[0].err)
	}
	if outs[1].err == nil || !strings.Contains(outs[1].err.Error(), "shard 0") {
		t.Fatalf("shard 1 err = %v, want attribution to shard 0", outs[1].err)
	}
	for i, o := range outs {
		if o.stats.CheckpointSuperstep != cancelAt+1 {
			t.Fatalf("shard %d captured superstep %d, want %d", i, o.stats.CheckpointSuperstep, cancelAt+1)
		}
	}
	snaps := []*Snapshot{chainSnapshot(t, outs[0].stats.CheckpointPath), chainSnapshot(t, outs[1].stats.CheckpointPath)}
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
}

// recordingTransport keeps a copy of every data frame and barrier
// payload the shard it wraps publishes.
type recordingTransport struct {
	transport.Transport
	frames, ctrls [][]byte
}

func (r *recordingTransport) Send(dst int, frame []byte) error {
	r.frames = append(r.frames, bytes.Clone(frame))
	return r.Transport.Send(dst, frame)
}

func (r *recordingTransport) Barrier(ctrl []byte) ([][]byte, error) {
	r.ctrls = append(r.ctrls, bytes.Clone(ctrl))
	return r.Transport.Barrier(ctrl)
}

// Decoders FuzzShardPayloadDecode drives, by its first argument mod 4.
const (
	decodeDataFrame = iota
	decodeBarrier1
	decodeBarrier2
	decodeGather
)

// peerState renders everything a payload from shard 1 may write on e,
// shard 0 of a finished two-shard run: the stubs' aggregator partials,
// quarantine lists and local-destined buckets, and shard 1's values.
func peerState(e *Engine[shardVal, float64]) string {
	var b strings.Builder
	for _, w := range e.shardWorkers(1) {
		fmt.Fprintln(&b, w.aggSeen, w.quarantined)
		for _, v := range w.aggPend {
			fmt.Fprintln(&b, math.Float64bits(v))
		}
		for d := range e.localWorkers() {
			fmt.Fprintln(&b, len(w.outTo[d]), len(w.outMsg[d]))
		}
		for _, v := range e.values[w.lo:w.hi] {
			fmt.Fprintln(&b, math.Float64bits(v.Score))
		}
	}
	return b.String()
}

// decodePeerPayload feeds p, as a payload shard 1 sent at superstep step,
// to one decoder of e and fails t if an accepted data frame addresses a
// vertex outside its destination worker, or a refused payload changed
// e's state. It reports whether p was accepted.
func decodePeerPayload(t testing.TB, e *Engine[shardVal, float64], decoder, step int, p []byte) bool {
	t.Helper()
	e.superstep = step
	stubs := e.shardWorkers(1)
	for _, w := range stubs {
		for d := range e.localWorkers() {
			w.outTo[d], w.outMsg[d] = w.outTo[d][:0], w.outMsg[d][:0]
		}
	}
	before := peerState(e)
	var st StepStats
	nextActive := 0
	var err error
	switch decoder {
	case decodeDataFrame:
		err = e.applyDataFrame(p)
	case decodeBarrier1:
		err = e.applyCtrl1(1, p)
	case decodeBarrier2:
		_, err = e.applyCtrl2(1, p, &st, &nextActive)
	case decodeGather:
		err = installRows(e.values[stubs[0].lo:stubs[len(stubs)-1].hi], p, e.valCodec)
	}
	if err == nil {
		for _, w := range stubs {
			for d, wk := range e.localWorkers() {
				for _, v := range w.outTo[d] {
					if int(v) < wk.lo || int(v) >= wk.hi {
						t.Fatalf("accepted frame addresses vertex %d to worker %d", v, wk.id)
					}
				}
			}
		}
		return true
	}
	if peerState(e) != before || st != (StepStats{}) || nextActive != 0 {
		t.Fatalf("refused payload (%v) changed the engine's state", err)
	}
	return false
}

// FuzzShardPayloadDecode holds the peer-payload decoders — data frames,
// both barrier kinds and the gather — to their contract on arbitrary
// bytes: they never panic, and a payload they refuse leaves nothing of
// itself behind. The seeds are what shard 1 of a real quarantined,
// combining two-shard run published; each is accepted, and every
// truncation of it is refused.
func FuzzShardPayloadDecode(f *testing.F) {
	g := graph.RMAT(6, 4, 0.5, 0.2, 0.2, true, 5)
	rec := &recordingTransport{}
	opts := Options{Workers: 4, Quarantine: true}
	prog := func() Program[shardVal, float64] {
		return &poisonedMass{massProgram{rounds: 4}, map[VertexID]int{40: 1, 60: 2}}
	}
	outs := runSharded(f, g, opts, 2, func(i int, o *Options) {
		if i == 1 {
			rec.Transport = o.Shard.Transport
			o.Shard.Transport = rec
		}
	}, nil, func(o Options) *Engine[shardVal, float64] { return massEngine(g, o, true) }, prog)
	for i, o := range outs {
		if o.err != nil {
			f.Fatalf("seed run, shard %d: %v", i, o.err)
		}
	}
	e := outs[0].eng
	type seed struct {
		decoder, step int
		p             []byte
	}
	var seeds []seed
	for _, fr := range rec.frames {
		seeds = append(seeds, seed{decodeDataFrame, int(binary.LittleEndian.Uint32(fr)), fr})
	}
	gather := rec.ctrls[len(rec.ctrls)-1]
	for i, c := range rec.ctrls[:len(rec.ctrls)-1] {
		seeds = append(seeds, seed{decodeBarrier1 + i%2, int(binary.LittleEndian.Uint32(c[1:])), c})
	}
	seeds = append(seeds,
		seed{decodeGather, 0, gather},
		seed{decodeBarrier2, e.superstep, e.appendCtrl2(nil, &StepStats{MessagesSent: 7}, 2, errors.New("stop"))})
	for _, s := range seeds {
		if !decodePeerPayload(f, e, s.decoder, s.step, s.p) {
			f.Fatalf("decoder %d refused its seed at superstep %d", s.decoder, s.step)
		}
		for n := 0; n < len(s.p); n++ {
			if decodePeerPayload(f, e, s.decoder, s.step, s.p[:n]) {
				f.Fatalf("decoder %d accepted a %d-byte truncation of a %d-byte seed", s.decoder, n, len(s.p))
			}
		}
		f.Add(uint8(s.decoder), uint8(s.step), s.p)
	}
	f.Fuzz(func(t *testing.T, decoder, step uint8, p []byte) {
		decodePeerPayload(t, e, int(decoder%4), int(step%8), p)
	})
}

// TestShardOfInvertsShardWorkers: every worker is routed to the shard
// whose range holds it, for every split of up to 16 workers.
func TestShardOfInvertsShardWorkers(t *testing.T) {
	g := graph.Path(64, true)
	for w := 1; w <= 16; w++ {
		e := New[shardVal, float64](g, Options{Workers: w})
		for c := 1; c <= w; c++ {
			e.shard = &shardState{count: c}
			for i := 0; i < c; i++ {
				for _, wk := range e.shardWorkers(i) {
					if got := e.shardOf(wk.id); got != i {
						t.Fatalf("%d workers over %d shards: worker %d routed to shard %d, owned by %d", w, c, wk.id, got, i)
					}
				}
			}
		}
	}
}
