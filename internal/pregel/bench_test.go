package pregel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// Engine micro-benchmarks: raw superstep and message-exchange throughput,
// independent of the ΔV layer.

func benchGraph() *graph.Graph {
	return graph.RMAT(12, 8, 0.57, 0.19, 0.19, true, 99)
}

// BenchmarkSuperstepThroughput runs 3 all-active broadcast rounds per
// iteration and reports edge-traversals per op.
func BenchmarkSuperstepThroughput(b *testing.B) {
	g := benchGraph()
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New[sumVal, float64](g, Options{Workers: workers})
				if _, err := e.Run(sumAllProgram{rounds: 3}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(4*g.NumArcs()), "msgs/op")
		})
	}
}

func benchWorkersName(w int) string {
	switch w {
	case 1:
		return "workers=1"
	case 4:
		return "workers=4"
	default:
		return "workers=16"
	}
}

// BenchmarkCombinerThroughput measures the sender-side combining path.
func BenchmarkCombinerThroughput(b *testing.B) {
	g := benchGraph()
	for _, combine := range []bool{false, true} {
		combine := combine
		name := "off"
		if combine {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New[sumVal, float64](g, Options{Workers: 4})
				if combine {
					e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
				}
				if _, err := e.Run(sumAllProgram{rounds: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulers measures scan-all vs work-queue on a sparse-activity
// workload (SSSP-like flood where few vertices run per superstep).
func BenchmarkSchedulers(b *testing.B) {
	g := graph.Grid(120, 120, 1, 5)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		sched := sched
		name := "scan-all"
		if sched == WorkQueue {
			name = "work-queue"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New[echoVal, float64](g, Options{Workers: 4, Scheduler: sched})
				if _, err := e.Run(maxPropProgram{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// walkProgram sends one token down a directed path for hops supersteps:
// after Init, exactly one vertex runs and one message is delivered per
// superstep, whatever the path's length.
type walkProgram struct{ hops int }

func (walkProgram) Init(ctx *Context[struct{}, float64]) {
	if ctx.ID() == 0 {
		ctx.BroadcastOut(0)
	}
	ctx.VoteToHalt()
}

func (p walkProgram) Compute(ctx *Context[struct{}, float64], msgs []float64) {
	if ctx.Superstep() < p.hops {
		ctx.BroadcastOut(0)
	}
	ctx.VoteToHalt()
}

// BenchmarkThinSuperstep measures the fixed cost of a superstep whose
// frontier is a single vertex, at two graph sizes: ns/superstep is the mean
// duration of the supersteps after Init, which should not grow with n
// beyond the |V|/64-word sweeps.
func BenchmarkThinSuperstep(b *testing.B) {
	const hops = 256
	for _, n := range []int{1 << 12, 1 << 20} {
		g := graph.Path(n, true)
		for _, sched := range []Scheduler{ScanAll, WorkQueue} {
			b.Run(fmt.Sprintf("n=%d/%s", n, schedName(sched)), func(b *testing.B) {
				var steps time.Duration
				for i := 0; i < b.N; i++ {
					e := New[struct{}, float64](g, Options{Workers: 1, Scheduler: sched})
					st, err := e.Run(walkProgram{hops: hops})
					if err != nil {
						b.Fatal(err)
					}
					if st.Supersteps != hops+1 {
						b.Fatalf("%d supersteps, want %d", st.Supersteps, hops+1)
					}
					for _, s := range st.Steps[1:] {
						steps += s.Duration
					}
				}
				b.ReportMetric(float64(steps.Nanoseconds())/float64(b.N*hops), "ns/superstep")
			})
		}
	}
}

// BenchmarkReplay times the graph side of a restart over a served chain:
// LoadChain, then Replay of 32 mutation logs of 16 weighted additions each
// over a compact weighted R-MAT 14×8 boot graph. The boot graph's own
// digest is cached after the first iteration, as the chain's snapshot
// records are tiny: what is left is decoding, splicing and verifying.
func BenchmarkReplay(b *testing.B) {
	boot := graph.MustCompact(graph.WithRandomWeights(graph.RMAT(14, 8, 0.57, 0.19, 0.19, true, 1), 1, 10, 2))
	n := boot.NumVertices()
	dir := b.TempDir()
	w, err := NewChainWriter(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	g := boot
	for i := 0; i < 32; i++ {
		d := &graph.Delta{}
		for j := 0; j < 16; j++ {
			d.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), 1+rng.Float64())
		}
		if g, _, err = graph.ApplyDelta(g, d); err != nil {
			b.Fatal(err)
		}
		var log bytes.Buffer
		if err := graph.WriteDeltaLog(&log, d); err != nil {
			b.Fatal(err)
		}
		snap := blankSnapshot(snapHeader{Fingerprint: g.Fingerprint(), Superstep: i, NumVertices: n, Done: true})
		if _, _, err := w.AppendBatch(log.Bytes(), snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := LoadChain(dir)
		if err != nil {
			b.Fatal(err)
		}
		g, err := st.Replay(boot)
		if err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}

var benchDiffSink *SnapshotDelta

// BenchmarkDiffSnapshots diffs two snapshots of 2¹⁶ vertices whose machine
// payload (three float64 slots a vertex) differs in 64 vertices, which also
// changed their active bit: the shape of a repaired batch's checkpoint
// against the previous one, and what a chain append diffs.
func BenchmarkDiffSnapshots(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 1 << 16
	base := blankSnapshot(snapHeader{NumVertices: n, Done: true})
	base.Extra = randBytes(rng, 24*n)
	next := cloneSnapshot(base)
	next.Superstep++
	for i := 0; i < 64; i++ {
		u := rng.Intn(n)
		copy(next.Extra[24*u:], randBytes(rng, 8))
		putBit(next.active, u, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDiffSink = DiffSnapshots(base, next)
	}
}

// prVal / prProgram is a PageRank-shaped message-plane workload: every
// vertex is active every superstep, sends rank/outdeg along every out-edge,
// and sums its inbox — the densest steady-state traffic the engine sees.
type prVal struct{ Rank float64 }

type prProgram struct{ rounds int }

func (p prProgram) Init(ctx *Context[prVal, float64]) {
	ctx.Value().Rank = 1 / float64(ctx.NumVertices())
	if d := ctx.OutDegree(); d > 0 {
		ctx.BroadcastOut(ctx.Value().Rank / float64(d))
	}
}

func (p prProgram) Compute(ctx *Context[prVal, float64], msgs []float64) {
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	ctx.Value().Rank = 0.15/float64(ctx.NumVertices()) + 0.85*sum
	if ctx.Superstep() < p.rounds {
		if d := ctx.OutDegree(); d > 0 {
			ctx.BroadcastOut(ctx.Value().Rank / float64(d))
		}
	} else {
		ctx.VoteToHalt()
	}
}

func schedName(s Scheduler) string {
	if s == WorkQueue {
		return "work-queue"
	}
	return "scan-all"
}

// messagePlaneGraphs are the two benchmark topologies: a skewed R-MAT web
// graph and a uniform-degree grid.
func messagePlaneGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", benchGraph()},
		{"grid", graph.Grid(64, 64, 1, 5)},
	}
}

// BenchmarkMessagePlane is the headline engine micro-benchmark: combined
// PageRank-style traffic (Send → combine → exchange → deliver) per
// iteration, across both graph shapes and both schedulers.
func BenchmarkMessagePlane(b *testing.B) {
	const rounds = 5
	for _, gs := range messagePlaneGraphs() {
		for _, sched := range []Scheduler{ScanAll, WorkQueue} {
			gs, sched := gs, sched
			b.Run(gs.name+"/"+schedName(sched), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := New[prVal, float64](gs.g, Options{
						Workers:   4,
						Scheduler: sched,
					})
					e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
					if _, err := e.Run(prProgram{rounds: rounds}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64((rounds+1)*gs.g.NumArcs()), "msgs/op")
			})
		}
	}
}

// fillOutboxes replays a full uncombined broadcast round into every
// worker's outboxes: each vertex sends along all its out-edges from its
// owning worker's context, exactly as a compute phase would.
func fillOutboxes(e *Engine[sumVal, float64]) {
	for _, w := range e.workers {
		w.clearOutboxes()
		ctx := &w.ctx
		for u := w.lo; u < w.hi; u++ {
			for _, v := range e.g.OutList(VertexID(u), &w.arcBuf) {
				ctx.Send(v, 1)
			}
		}
	}
}

// BenchmarkSend measures Context.Send into warm outboxes: worker 0's share
// of a full broadcast round per graph shape, appended as sent (none),
// folded at send through a CombinerFunc (dense), and folded per class
// through the Combiner interface (classes=3; the payload is the arc index
// mod 3, which benchClassCombiner reads as the class). Each round starts as
// a compute phase does, buckets emptied and the fold table's epoch
// advanced, so it includes all the combining a superstep does.
func BenchmarkSend(b *testing.B) {
	sum := CombinerFunc[float64](func(a, b float64) float64 { return a + b })
	combiners := []struct {
		name string
		c    Combiner[float64]
	}{{"none", nil}, {"dense", sum}, {"classes=3", benchClassCombiner{}}}
	for _, gs := range messagePlaneGraphs() {
		for _, tc := range combiners {
			gs, tc := gs, tc
			b.Run(gs.name+"/"+tc.name, func(b *testing.B) {
				e := New[sumVal, float64](gs.g, Options{Workers: 4})
				w := e.workers[0]
				if tc.c != nil {
					e.SetCombiner(tc.c)
					w.useCombiner(tc.c)
				}
				ctx := &w.ctx
				round := func() {
					w.clearOutboxes()
					w.sent = 0
					for u := w.lo; u < w.hi; u++ {
						for i, v := range gs.g.OutList(VertexID(u), &w.arcBuf) {
							ctx.Send(v, float64(i%3))
						}
					}
				}
				round() // warm outbox capacity
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.ReportMetric(float64(w.sent), "sends/op")
			})
		}
	}
}

// benchClassCombiner splits BenchmarkSend's traffic into three classes by
// payload; min keeps a payload, and so its class, unchanged.
type benchClassCombiner struct{}

func (benchClassCombiner) Combine(acc, m *float64) { *acc = math.Min(*acc, *m) }
func (benchClassCombiner) Classes() int            { return 3 }
func (benchClassCombiner) Class(m *float64) int    { return int(*m) }

// shareProgram keeps every vertex active for rounds supersteps, summing its
// inbox; in each, the vertices whose hash mod 8 is below eighths broadcast.
type shareProgram struct {
	rounds  int
	eighths uint64
}

func (p shareProgram) Init(ctx *Context[sumVal, float64]) { p.Compute(ctx, nil) }

func (p shareProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	for _, m := range msgs {
		ctx.Value().Sum += m
	}
	if ctx.Superstep() >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	if inboxMix(uint64(ctx.ID())^uint64(ctx.Superstep())<<32)%8 < p.eighths {
		ctx.BroadcastOut(1 / float64(ctx.ID()+1))
	}
}

// broadcastGraph is R-MAT 16×8, converge-dense's shape, built once.
var broadcastGraph = sync.OnceValue(func() *graph.Graph {
	return graph.RMAT(16, 8, 0.57, 0.19, 0.19, true, 1)
})

// BenchmarkBroadcast measures a combined broadcast superstep delivered by
// push and by pull, on R-MAT 16×8 flat and compact, with eighths/8 of the
// vertices broadcasting: ns/message is the time of the supersteps after
// the first (which builds pull's in-source index) over their messages.
// The share sweep is what pullSlack was read off.
func BenchmarkBroadcast(b *testing.B) {
	const rounds = 4
	sum := CombinerFunc[float64](func(a, b float64) float64 { return a + b })
	for _, repr := range []string{"compact", "flat"} {
		g := broadcastGraph()
		if repr == "compact" {
			g = graph.MustCompact(g)
		}
		for _, eighths := range []uint64{8, 7, 6, 4, 1} {
			for _, mode := range []delivery{deliverPush, deliverPull} {
				how := "push"
				if mode == deliverPull {
					how = "pull"
				}
				name := fmt.Sprintf("%s/share=%d:8/%s", repr, eighths, how)
				b.Run(name, func(b *testing.B) {
					var took time.Duration
					msgs := 0
					for i := 0; i < b.N; i++ {
						e := New[sumVal, float64](g, Options{Workers: 4})
						e.SetCombiner(sum)
						e.deliver = mode
						st, err := e.Run(shareProgram{rounds: rounds, eighths: eighths})
						if err != nil {
							b.Fatal(err)
						}
						if (e.pulls > 0) != (mode == deliverPull) {
							b.Fatalf("%d pull supersteps under %s", e.pulls, name)
						}
						for _, s := range st.Steps[1:] {
							took += s.Duration
							msgs += s.MessagesSent
						}
					}
					b.ReportMetric(float64(took.Nanoseconds())/float64(msgs), "ns/message")
				})
			}
		}
	}
}

// BenchmarkExchange measures the count/scatter/wake delivery pass over a
// full uncombined broadcast round, per graph shape and scheduler. Outboxes
// are filled once; exchange does not consume them.
func BenchmarkExchange(b *testing.B) {
	for _, gs := range messagePlaneGraphs() {
		for _, sched := range []Scheduler{ScanAll, WorkQueue} {
			gs, sched := gs, sched
			b.Run(gs.name+"/"+schedName(sched), func(b *testing.B) {
				e := New[sumVal, float64](gs.g, Options{Workers: 4, Scheduler: sched})
				e.superstep = 1 // deliveries behave as a steady-state superstep
				fillOutboxes(e)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, w := range e.workers {
						// Mimic the compute-phase queue reset so the
						// wake pass re-enqueues receivers every round.
						w.stamp++
						w.next = w.next[:0]
						w.exchange()
					}
				}
				b.ReportMetric(float64(gs.g.NumArcs()), "msgs/op")
			})
		}
	}
}
