// Package algorithms provides handwritten vertex-centric reference
// implementations of the paper's four benchmarks — PageRank (Fig. 1), SSSP,
// Connected Components, and non-converging HITS — written directly against
// the Pregel engine the way a Pregel+ programmer would. They are the
// "Pregel+" bars of the paper's Figures 4 and 5 and the hand-written rows
// of Table 2.
package algorithms

import (
	"context"
	"math"

	"repro/internal/fmath"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// RunOptions configure a reference run.
type RunOptions struct {
	Workers   int
	Scheduler pregel.Scheduler
	Combine   bool
	// Ctx, when non-nil, bounds the run: cancellation or a deadline
	// aborts at the next superstep barrier with partial stats (see
	// pregel.Engine.RunContext). Nil means context.Background().
	Ctx context.Context
	// Checkpoint enables barrier snapshots (see pregel.CheckpointOptions);
	// the algorithms install portable codecs for their state types, so
	// snapshots are architecture-independent.
	Checkpoint pregel.CheckpointOptions
	// Seed is the state the run starts from instead of superstep 0 (see
	// pregel.Options.Seed); nil is a cold start.
	Seed *pregel.Seed
	// Shard places the run in a multi-process sharded mesh (see
	// pregel.ShardOptions); Workers must then be explicit and identical
	// on every shard.
	Shard *pregel.ShardOptions
}

// ctx returns the run context, defaulting to Background.
func (o RunOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// engineOpts translates RunOptions to engine options.
func (o RunOptions) engineOpts() pregel.Options {
	return pregel.Options{
		Workers:    o.Workers,
		Scheduler:  o.Scheduler,
		Checkpoint: o.Checkpoint,
		Seed:       o.Seed,
		Shard:      o.Shard,
	}
}

// ---------------------------------------------------------------------------
// PageRank, transcribed from the paper's Figure 1 (including its
// sum/graphSize normalization), generalized to directed graphs: ranks
// arrive on in-edges and are divided over the out-degree.

// PRState is the hand-written PageRank vertex state (Table 2's Pregel+
// column for PG).
type PRState struct {
	PR float64
}

// PageRank runs the Fig. 1 algorithm for the given number of iterations.
type PageRank struct {
	Iterations int
}

// Init implements superstep 1 of Fig. 1 (step_num() == 1).
func (p *PageRank) Init(ctx *pregel.Context[PRState, float64]) {
	ctx.Value().PR = 1.0 / float64(ctx.NumVertices())
	p.sendRank(ctx)
}

// Compute implements the remaining supersteps of Fig. 1.
func (p *PageRank) Compute(ctx *pregel.Context[PRState, float64], msgs []float64) {
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	ctx.Value().PR = 0.15 + 0.85*(sum/float64(ctx.NumVertices()))
	if ctx.Superstep() < p.Iterations {
		p.sendRank(ctx)
	} else {
		ctx.VoteToHalt()
	}
}

func (p *PageRank) sendRank(ctx *pregel.Context[PRState, float64]) {
	d := ctx.OutDegree()
	if d == 0 {
		return
	}
	ctx.BroadcastOut(ctx.Value().PR / float64(d))
}

// RunPageRank executes PageRank and returns the engine plus run stats.
func RunPageRank(g *graph.Graph, iterations int, opts RunOptions) (*pregel.Engine[PRState, float64], *pregel.Stats, error) {
	e := pregel.New[PRState, float64](g, opts.engineOpts())
	e.SetValueCodec(prStateCodec{})
	e.SetMessageCodec(pregel.Float64Codec{})
	if opts.Combine {
		e.SetCombiner(pregel.CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
	}
	stats, err := e.RunContext(opts.ctx(), &PageRank{Iterations: iterations})
	return e, stats, err
}

// ---------------------------------------------------------------------------
// Single-source shortest paths: the classic Pregel SSSP with a min
// combiner. Distances travel along out-edges; only improvements are
// propagated ("pre-incrementalized", §7.2).

// SSSPState is the hand-written SSSP vertex state.
type SSSPState struct {
	Dist float64
}

// SSSP computes shortest path distances from Source.
type SSSP struct {
	Source graph.VertexID
}

// Init seeds the source at distance 0 and broadcasts the first
// relaxations.
func (s *SSSP) Init(ctx *pregel.Context[SSSPState, float64]) {
	v := ctx.Value()
	if ctx.ID() == s.Source {
		v.Dist = 0
		s.relax(ctx)
	} else {
		v.Dist = math.Inf(1)
	}
	ctx.VoteToHalt()
}

// Compute applies incoming tentative distances and propagates
// improvements.
func (s *SSSP) Compute(ctx *pregel.Context[SSSPState, float64], msgs []float64) {
	best := ctx.Value().Dist
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < ctx.Value().Dist {
		ctx.Value().Dist = best
		s.relax(ctx)
	}
	ctx.VoteToHalt()
}

func (s *SSSP) relax(ctx *pregel.Context[SSSPState, float64]) {
	d := ctx.Value().Dist
	it := ctx.OutArcs()
	for it.Next() {
		ctx.Send(it.To(), d+it.Weight())
	}
}

// RunSSSP executes SSSP from source and returns the engine plus stats.
func RunSSSP(g *graph.Graph, source graph.VertexID, opts RunOptions) (*pregel.Engine[SSSPState, float64], *pregel.Stats, error) {
	e := pregel.New[SSSPState, float64](g, opts.engineOpts())
	e.SetValueCodec(ssspStateCodec{})
	e.SetMessageCodec(pregel.Float64Codec{})
	if opts.Combine {
		e.SetCombiner(pregel.CombinerFunc[float64](fmath.Min))
	}
	stats, err := e.RunContext(opts.ctx(), &SSSP{Source: source})
	return e, stats, err
}

// ---------------------------------------------------------------------------
// Connected components by minimum-label propagation (HashMin), for
// undirected graphs.

// CCState is the hand-written CC vertex state.
type CCState struct {
	Comp int64
}

// CC labels every vertex with the smallest vertex id in its component.
type CC struct{}

// Init starts every vertex at its own id and broadcasts it.
func (CC) Init(ctx *pregel.Context[CCState, float64]) {
	ctx.Value().Comp = int64(ctx.ID())
	ctx.BroadcastOut(float64(ctx.Value().Comp))
	ctx.VoteToHalt()
}

// Compute adopts the smallest label seen and propagates changes.
func (CC) Compute(ctx *pregel.Context[CCState, float64], msgs []float64) {
	best := ctx.Value().Comp
	for _, m := range msgs {
		if int64(m) < best {
			best = int64(m)
		}
	}
	if best < ctx.Value().Comp {
		ctx.Value().Comp = best
		ctx.BroadcastOut(float64(best))
	}
	ctx.VoteToHalt()
}

// RunCC executes connected components and returns the engine plus stats.
func RunCC(g *graph.Graph, opts RunOptions) (*pregel.Engine[CCState, float64], *pregel.Stats, error) {
	e := pregel.New[CCState, float64](g, opts.engineOpts())
	e.SetValueCodec(ccStateCodec{})
	e.SetMessageCodec(pregel.Float64Codec{})
	if opts.Combine {
		e.SetCombiner(pregel.CombinerFunc[float64](fmath.Min))
	}
	stats, err := e.RunContext(opts.ctx(), CC{})
	return e, stats, err
}

// ---------------------------------------------------------------------------
// Non-converging HITS (§7): hub and authority updated simultaneously with
// no normalization for a fixed number of rounds. auth(v) = Σ hub(u) over
// in-neighbours; hub(v) = Σ auth(u) over out-neighbours. Each vertex sends
// one two-value message per incident edge direction per round.

// HITSState is the hand-written HITS vertex state.
type HITSState struct {
	Hub, Auth float64
}

// HITSMsg carries a hub or authority contribution.
type HITSMsg struct {
	// ToAuth is true when Val is a hub score travelling to an authority
	// sum (sent along an out-edge); false for an authority score
	// travelling to a hub sum (sent along an in-edge).
	ToAuth bool
	Val    float64
}

// HITS runs the simultaneous update for Iterations rounds.
type HITS struct {
	Iterations int
}

// Init sets hub = auth = 1 and sends the first contributions.
func (h *HITS) Init(ctx *pregel.Context[HITSState, HITSMsg]) {
	v := ctx.Value()
	v.Hub, v.Auth = 1, 1
	h.send(ctx)
}

// Compute accumulates contributions and re-sends until the round limit.
func (h *HITS) Compute(ctx *pregel.Context[HITSState, HITSMsg], msgs []HITSMsg) {
	var auth, hub float64
	for _, m := range msgs {
		if m.ToAuth {
			auth += m.Val
		} else {
			hub += m.Val
		}
	}
	v := ctx.Value()
	v.Auth, v.Hub = auth, hub
	if ctx.Superstep() < h.Iterations {
		h.send(ctx)
	} else {
		ctx.VoteToHalt()
	}
}

func (h *HITS) send(ctx *pregel.Context[HITSState, HITSMsg]) {
	v := ctx.Value()
	out := ctx.OutArcs()
	for out.Next() {
		ctx.Send(out.To(), HITSMsg{ToAuth: true, Val: v.Hub})
	}
	in := ctx.InArcs()
	for in.Next() {
		ctx.Send(in.To(), HITSMsg{ToAuth: false, Val: v.Auth})
	}
}

// hitsCombiner sums contributions of the same kind; the two kinds are its
// two classes, so mixed-kind messages are never combined.
type hitsCombiner struct{}

func (hitsCombiner) Combine(acc, m *HITSMsg) { acc.Val += m.Val }
func (hitsCombiner) Classes() int            { return 2 }
func (hitsCombiner) Class(m *HITSMsg) int {
	if m.ToAuth {
		return 1
	}
	return 0
}

// RunHITS executes HITS and returns the engine plus stats. The graph must
// have reverse adjacency.
func RunHITS(g *graph.Graph, iterations int, opts RunOptions) (*pregel.Engine[HITSState, HITSMsg], *pregel.Stats, error) {
	g.BuildReverse()
	e := pregel.New[HITSState, HITSMsg](g, opts.engineOpts())
	e.SetValueCodec(hitsStateCodec{})
	e.SetMessageCodec(hitsMsgCodec{})
	if opts.Combine {
		e.SetCombiner(hitsCombiner{})
	}
	stats, err := e.RunContext(opts.ctx(), &HITS{Iterations: iterations})
	return e, stats, err
}

// ---------------------------------------------------------------------------
// Oracles: sequential implementations used by tests to validate both the
// handwritten programs and the compiled ΔV programs.

// PageRankOracle computes the Fig. 1 recurrence sequentially.
func PageRankOracle(g *graph.Graph, iterations int) []float64 {
	n := g.NumVertices()
	pr := make([]float64, n)
	contrib := make([]float64, n)
	for i := range pr {
		pr[i] = 1.0 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for u := 0; u < n; u++ {
			if d := g.OutDegree(graph.VertexID(u)); d > 0 {
				contrib[u] = pr[u] / float64(d)
			} else {
				contrib[u] = 0
			}
		}
		next := make([]float64, n)
		for u := 0; u < n; u++ {
			sum := 0.0
			it := g.InArcs(graph.VertexID(u))
			for it.Next() {
				sum += contrib[it.To()]
			}
			next[u] = 0.15 + 0.85*(sum/float64(n))
		}
		pr = next
	}
	return pr
}

// SSSPOracle computes exact shortest-path distances with Dijkstra.
func SSSPOracle(g *graph.Graph, source graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		it := g.OutArcs(graph.VertexID(u))
		for it.Next() {
			if d := dist[u] + it.Weight(); d < dist[it.To()] {
				dist[it.To()] = d
			}
		}
	}
	return dist
}

// HITSOracle computes the non-normalized simultaneous update sequentially.
func HITSOracle(g *graph.Graph, iterations int) (hub, auth []float64) {
	n := g.NumVertices()
	hub = make([]float64, n)
	auth = make([]float64, n)
	for i := 0; i < n; i++ {
		hub[i], auth[i] = 1, 1
	}
	for it := 0; it < iterations; it++ {
		nh := make([]float64, n)
		na := make([]float64, n)
		for u := 0; u < n; u++ {
			in := g.InArcs(graph.VertexID(u))
			for in.Next() {
				na[u] += hub[in.To()]
			}
			out := g.OutArcs(graph.VertexID(u))
			for out.Next() {
				nh[u] += auth[out.To()]
			}
		}
		hub, auth = nh, na
	}
	return hub, auth
}
