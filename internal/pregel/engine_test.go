package pregel

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// echoProgram floods a token outward: superstep 0 vertex 0 sends its ID+1
// to out-neighbours; each receiver stores max(received) and forwards once.
type echoVal struct {
	Best float64
}

type echoProgram struct{}

func (echoProgram) Init(ctx *Context[echoVal, float64]) {
	if ctx.ID() == 0 {
		ctx.Value().Best = 1
		ctx.BroadcastOut(1)
	}
	ctx.VoteToHalt()
}

func (echoProgram) Compute(ctx *Context[echoVal, float64], msgs []float64) {
	best := ctx.Value().Best
	changed := false
	for _, m := range msgs {
		if m > best {
			best = m
			changed = true
		}
	}
	if changed {
		ctx.Value().Best = best
		ctx.BroadcastOut(best + 1)
	}
	ctx.VoteToHalt()
}

func TestFloodOnPath(t *testing.T) {
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		for _, workers := range []int{1, 3, 8} {
			g := graph.Path(10, true)
			e := New[echoVal, float64](g, Options{Workers: workers, Scheduler: sched})
			stats, err := e.Run(echoProgram{})
			if err != nil {
				t.Fatalf("sched=%v workers=%d: %v", sched, workers, err)
			}
			for u := 0; u < 10; u++ {
				want := float64(u)
				if u == 0 {
					want = 1
				}
				if got := e.Value(graph.VertexID(u)).Best; got != want {
					t.Fatalf("sched=%v workers=%d: value[%d] = %g, want %g", sched, workers, u, got, want)
				}
			}
			// Path of 10: 9 hops, so 9 messages, one per superstep after init.
			if stats.MessagesSent != 9 {
				t.Fatalf("sched=%v workers=%d: messages = %d, want 9", sched, workers, stats.MessagesSent)
			}
			if stats.Supersteps != 10 {
				t.Fatalf("sched=%v workers=%d: supersteps = %d, want 10", sched, workers, stats.Supersteps)
			}
		}
	}
}

// sumAllProgram: every vertex sends 1.0 to all out-neighbours each of 3
// supersteps; vertices accumulate. Exercises repeated activity without
// halting.
type sumVal struct{ Sum float64 }

type sumAllProgram struct{ rounds int }

func (p sumAllProgram) Init(ctx *Context[sumVal, float64]) {
	ctx.BroadcastOut(1)
}

func (p sumAllProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	for _, m := range msgs {
		ctx.Value().Sum += m
	}
	if ctx.Superstep() < p.rounds {
		ctx.BroadcastOut(1)
	} else {
		ctx.VoteToHalt()
	}
}

func TestMessageDeliveryCounts(t *testing.T) {
	g := graph.Complete(6, true) // 30 arcs
	e := New[sumVal, float64](g, Options{Workers: 4})
	stats, err := e.Run(sumAllProgram{rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Sends at supersteps 0,1,2 → 3 rounds × 30 arcs.
	if stats.MessagesSent != 90 {
		t.Fatalf("messages = %d, want 90", stats.MessagesSent)
	}
	for u := 0; u < 6; u++ {
		if got := e.Value(graph.VertexID(u)).Sum; got != 15 {
			t.Fatalf("value[%d] = %g, want 15 (5 in-neighbours × 3 rounds)", u, got)
		}
	}
}

func TestCombinerReducesDeliveredNotSent(t *testing.T) {
	g := graph.Star(9, true) // hub 0 -> 8 leaves
	// Reverse: all leaves send to hub. Build in-edges by using a program
	// where leaves send to vertex 0 directly.
	e := New[sumVal, float64](g, Options{Workers: 2})
	e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
	prog := &directedSendProgram{}
	stats, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 8 {
		t.Fatalf("sent = %d, want 8", stats.MessagesSent)
	}
	// 2 workers → at most 2 combined envelopes reach the hub.
	if stats.CombinedMessages >= 8 || stats.CombinedMessages < 1 {
		t.Fatalf("combined = %d, want in [1,7]", stats.CombinedMessages)
	}
	if got := e.Value(0).Sum; got != 8 {
		t.Fatalf("hub sum = %g, want 8", got)
	}
}

type directedSendProgram struct{}

func (*directedSendProgram) Init(ctx *Context[sumVal, float64]) {
	if ctx.ID() != 0 {
		ctx.Send(0, 1)
	}
	ctx.VoteToHalt()
}

func (*directedSendProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	for _, m := range msgs {
		ctx.Value().Sum += m
	}
	ctx.VoteToHalt()
}

func TestAggregators(t *testing.T) {
	g := graph.Path(8, true)
	e := New[sumVal, float64](g, Options{Workers: 3})
	for want, a := range []struct {
		name       string
		op         AggregatorOp
		persistent bool
	}{{"sum", AggSum, false}, {"min", AggMin, false}, {"max", AggMax, false}, {"sticky", AggSum, true}} {
		id, err := e.RegisterAggregator(a.name, a.op, a.persistent)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("aggregator %q got id %d, want %d (registration order)", a.name, id, want)
		}
	}
	if _, err := e.RegisterAggregator("sum", AggSum, false); err == nil {
		t.Fatal("duplicate aggregator registration should fail")
	}
	if _, err := e.RegisterAggregator("badpersist", AggMin, true); err == nil {
		t.Fatal("persistent min aggregator should be rejected")
	}
	prog := &aggProgram{}
	if _, err := e.Run(prog); err != nil {
		t.Fatal(err)
	}
	// At superstep 1 each vertex saw the aggregated values from superstep 0:
	// sum of ids = 28, min = 0, max = 7.
	if prog.seenSum != 28 || prog.seenMin != 0 || prog.seenMax != 7 {
		t.Fatalf("aggregates = (%g,%g,%g), want (28,0,7)", prog.seenSum, prog.seenMin, prog.seenMax)
	}
	// Persistent aggregator accumulated +1 per vertex at both supersteps.
	if got := e.AggregatorValue("sticky"); got != 16 {
		t.Fatalf("sticky = %g, want 16", got)
	}
}

type aggProgram struct {
	seenSum, seenMin, seenMax float64
}

// The ids TestAggregators' registrations return, in order.
const (
	idSum = iota
	idMin
	idMax
	idSticky
)

func (p *aggProgram) Init(ctx *Context[sumVal, float64]) {
	id := float64(ctx.ID())
	ctx.Aggregate(idSum, id)
	ctx.Aggregate(idMin, id)
	ctx.Aggregate(idMax, id)
	ctx.Aggregate(idSticky, 1)
	if ctx.ID() == 0 {
		ctx.BroadcastOut(0) // keep vertex 1 alive for superstep 1
	}
	ctx.VoteToHalt()
}

func (p *aggProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	p.seenSum = ctx.AggValue("sum")
	p.seenMin = ctx.AggValue("min")
	p.seenMax = ctx.AggValue("max")
	ctx.Aggregate(idSticky, 1)
	// All 8 vertices contribute to sticky at superstep 1? No — only this
	// one runs; contribute 8 to compensate for the other 7 plus self.
	ctx.Aggregate(idSticky, 7)
	ctx.VoteToHalt()
}

func TestMasterHookGlobalsActivateAllAndStop(t *testing.T) {
	g := graph.Path(4, true)
	e := New[sumVal, float64](g, Options{Workers: 2})
	e.SetGlobals(&testGlobals{})
	ran := 0
	e.SetMasterHook(func(mc *MasterContext) {
		gl := mc.Globals().(*testGlobals)
		gl.round++
		mc.SetGlobals(gl)
		ran++
		if gl.round < 3 {
			mc.ActivateAll() // keep everything alive despite votes to halt
		}
		if gl.round == 3 {
			mc.Stop()
		}
	})
	prog := &globalsProgram{}
	stats, err := e.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want 3", stats.Supersteps)
	}
	if ran != 3 {
		t.Fatalf("master hook ran %d times, want 3", ran)
	}
	if prog.maxRound != 2 {
		t.Fatalf("vertices saw round %d, want 2", prog.maxRound)
	}
}

type testGlobals struct{ round int }

type globalsProgram struct {
	mu       sync.Mutex
	maxRound int
}

func (p *globalsProgram) Init(ctx *Context[sumVal, float64]) { ctx.VoteToHalt() }

func (p *globalsProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	r := ctx.Globals().(*testGlobals)
	p.mu.Lock()
	if r.round > p.maxRound {
		p.maxRound = r.round
	}
	p.mu.Unlock()
	ctx.VoteToHalt()
}

func TestRemoveSelfDropsFutureMessages(t *testing.T) {
	// 0 -> 1 -> 2; vertex 1 removes itself at superstep 1 after forwarding.
	g := graph.Path(3, true)
	e := New[removalVal, float64](g, Options{Workers: 1})
	if _, err := e.Run(&removalProgram{}); err != nil {
		t.Fatal(err)
	}
	if e.Value(2).Got != 1 {
		t.Fatal("vertex 2 should have received the forwarded message")
	}
	if e.Value(1).Runs != 2 {
		t.Fatalf("vertex 1 ran %d times, want 2 (init + one compute)", e.Value(1).Runs)
	}
}

type removalVal struct {
	Got  float64
	Runs int
}

type removalProgram struct{}

func (*removalProgram) Init(ctx *Context[removalVal, float64]) {
	ctx.Value().Runs++
	if ctx.ID() == 0 {
		ctx.BroadcastOut(1)
		return // stay active so superstep 1 can send to the removed vertex
	}
	ctx.VoteToHalt()
}

func (*removalProgram) Compute(ctx *Context[removalVal, float64], msgs []float64) {
	ctx.Value().Runs++
	for _, m := range msgs {
		if m != 99 {
			ctx.Value().Got = m
		}
	}
	switch ctx.ID() {
	case 0:
		// Send into the vertex that removes itself this same superstep;
		// delivery must drop it.
		ctx.Send(1, 99)
	case 1:
		ctx.BroadcastOut(ctx.Value().Got)
		ctx.RemoveSelf()
	}
	ctx.VoteToHalt()
}

func TestMaxSuperstepsError(t *testing.T) {
	g := graph.Cycle(4, true)
	e := New[sumVal, float64](g, Options{Workers: 1, MaxSupersteps: 5})
	_, err := e.Run(&spinProgram{})
	if err == nil {
		t.Fatal("expected superstep-limit error")
	}
}

type spinProgram struct{}

func (*spinProgram) Init(ctx *Context[sumVal, float64])                    { ctx.BroadcastOut(1) }
func (*spinProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) { ctx.BroadcastOut(1) }

func TestRunTwiceFails(t *testing.T) {
	g := graph.Path(2, true)
	e := New[sumVal, float64](g, Options{})
	if _, err := e.Run(&directedSendProgram{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&directedSendProgram{}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, true).Finalize()
	e := New[sumVal, float64](g, Options{})
	hookFired := 0
	e.SetMasterHook(func(mc *MasterContext) {
		hookFired++
		if mc.Step() != (StepStats{}) {
			t.Errorf("empty-graph hook step = %+v, want zero", mc.Step())
		}
	})
	stats, err := e.Run(&directedSendProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 0 {
		t.Fatalf("supersteps = %d, want 0", stats.Supersteps)
	}
	// The empty-graph path must have the same shape as a zero-superstep
	// run: non-nil (empty) Steps, a measured Duration, one hook firing.
	if stats.Steps == nil {
		t.Fatal("empty-graph Steps is nil, want non-nil empty slice")
	}
	if len(stats.Steps) != 0 {
		t.Fatalf("empty-graph Steps has %d entries, want 0", len(stats.Steps))
	}
	if stats.Duration <= 0 {
		t.Fatalf("empty-graph Duration = %v, want > 0", stats.Duration)
	}
	if hookFired != 1 {
		t.Fatalf("master hook fired %d times on empty graph, want 1", hookFired)
	}
	if stats.Aborted {
		t.Fatalf("empty-graph run marked aborted: %q", stats.AbortReason)
	}
	// It is a finished run, so it has an end state to hand out, and that
	// state survives the wire format.
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after an empty-graph run: %v", err)
	}
	if !snap.Done || snap.NumVertices != 0 {
		t.Fatalf("empty-graph snapshot = Done %v, %d vertices; want Done, 0", snap.Done, snap.NumVertices)
	}
	if _, _, err := DecodeSnapshot(snap.AppendTo(nil)); err != nil {
		t.Fatalf("empty-graph snapshot does not round-trip: %v", err)
	}
}

// Property: on a random directed graph, a program where every vertex sends
// its ID to each out-neighbour exactly once delivers every message exactly
// once (receiver-side sums match graph structure) for both schedulers and
// any worker count.
func TestExactlyOnceDeliveryProperty(t *testing.T) {
	f := func(seed int64, workerHint uint8, queueSched bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		m := rng.Intn(5 * n)
		b := graph.NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Finalize()
		g.BuildReverse()
		sched := ScanAll
		if queueSched {
			sched = WorkQueue
		}
		e := New[sumVal, float64](g, Options{Workers: 1 + int(workerHint%7), Scheduler: sched})
		if _, err := e.Run(&idSendProgram{}); err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			want := 0.0
			for it := g.InArcs(graph.VertexID(u)); it.Next(); {
				want += float64(it.To()) + 1
			}
			if e.Value(graph.VertexID(u)).Sum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// maxPropProgram propagates the maximum vertex ID: converges on any graph.
type maxPropProgram struct{}

func (maxPropProgram) Init(ctx *Context[echoVal, float64]) {
	ctx.Value().Best = float64(ctx.ID())
	ctx.BroadcastOut(ctx.Value().Best)
	ctx.VoteToHalt()
}

func (maxPropProgram) Compute(ctx *Context[echoVal, float64], msgs []float64) {
	best := ctx.Value().Best
	changed := false
	for _, m := range msgs {
		if m > best {
			best = m
			changed = true
		}
	}
	if changed {
		ctx.Value().Best = best
		ctx.BroadcastOut(best)
	}
	ctx.VoteToHalt()
}

type idSendProgram struct{}

func (*idSendProgram) Init(ctx *Context[sumVal, float64]) {
	ctx.BroadcastOut(float64(ctx.ID()) + 1)
	ctx.VoteToHalt()
}

func (*idSendProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	for _, m := range msgs {
		ctx.Value().Sum += m
	}
	ctx.VoteToHalt()
}

func TestCrossWorkerCounting(t *testing.T) {
	// A path graph split into two blocks: only the boundary edge crosses.
	g := graph.Path(16, true)
	e := New[echoVal, float64](g, Options{Workers: 2})
	stats, err := e.Run(echoProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CrossWorker != 1 {
		t.Fatalf("cross-worker = %d, want 1", stats.CrossWorker)
	}
}

// Property: ScanAll and WorkQueue produce identical vertex values and
// identical vertex-level message counts on the flood program.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(4 * n)
		b := graph.NewBuilder(n, true)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Finalize()
		run := func(s Scheduler) ([]echoVal, int64) {
			e := New[echoVal, float64](g, Options{Workers: 4, Scheduler: s})
			st, err := e.Run(maxPropProgram{})
			if err != nil {
				return nil, -1
			}
			return e.Values(), st.MessagesSent
		}
		v1, m1 := run(ScanAll)
		v2, m2 := run(WorkQueue)
		if m1 != m2 || v1 == nil {
			return false
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsStringAndSteps(t *testing.T) {
	g := graph.Path(5, true)
	e := New[echoVal, float64](g, Options{Workers: 2})
	stats, err := e.Run(echoProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Steps) != stats.Supersteps {
		t.Fatalf("steps len %d != supersteps %d", len(stats.Steps), stats.Supersteps)
	}
	if stats == &e.stats {
		t.Fatal("Run returned a pointer into the engine: whoever keeps the stats keeps every inbox and outbox alive")
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
	if stats.MessageBytes != stats.CombinedMessages*8 {
		t.Fatalf("bytes = %d, want %d (8 per float64)", stats.MessageBytes, stats.CombinedMessages*8)
	}
}

// TestContextAccessors reads a vertex's adjacency the one way a program
// can, through OutArcs/InArcs, on the flat and the compact representation.
func TestContextAccessors(t *testing.T) {
	flat := graph.Grid(3, 3, 5, 1)
	compact, err := graph.Compact(flat)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 4 is the grid centre: degree 4, weights drawn from [1, 5). Its
	// in-weights are summed from the other vertices' out-arcs into it.
	var outW, inW float64
	for it := flat.OutArcs(4); it.Next(); {
		outW += it.Weight()
	}
	for u := 0; u < flat.NumVertices(); u++ {
		for it := flat.OutArcs(graph.VertexID(u)); it.Next(); {
			if it.To() == 4 {
				inW += it.Weight()
			}
		}
	}
	for _, g := range []*graph.Graph{flat, compact} {
		e := New[probeVal, float64](g, Options{Workers: 2})
		if _, err := e.Run(&probeProgram{}); err != nil {
			t.Fatal(err)
		}
		v := e.Value(4)
		if v.OutDeg != 4 || v.InDeg != 4 {
			t.Fatalf("compact=%v: centre degrees = (%d,%d), want (4,4)", g.IsCompact(), v.OutDeg, v.InDeg)
		}
		if v.OutW != outW || v.InW != inW || outW <= 4 {
			t.Fatalf("compact=%v: arc weights sum to (%v,%v), want (%v,%v) > 4", g.IsCompact(), v.OutW, v.InW, outW, inW)
		}
		if v.N != 9 {
			t.Fatalf("NumVertices = %d, want 9", v.N)
		}
	}
}

type probeVal struct {
	OutDeg, InDeg, N int
	OutW, InW        float64
}

type probeProgram struct{}

func (*probeProgram) Init(ctx *Context[probeVal, float64]) {
	v := ctx.Value()
	for it := ctx.OutArcs(); it.Next(); {
		v.OutDeg++
		v.OutW += it.Weight()
	}
	for it := ctx.InArcs(); it.Next(); {
		v.InDeg++
		v.InW += it.Weight()
	}
	if ctx.OutDegree() != v.OutDeg {
		panic("OutDegree disagrees with OutArcs")
	}
	v.N = ctx.NumVertices()
	if ctx.Graph() == nil {
		panic("nil graph")
	}
	ctx.VoteToHalt()
}

func (*probeProgram) Compute(ctx *Context[probeVal, float64], msgs []float64) { ctx.VoteToHalt() }
