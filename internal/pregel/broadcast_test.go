package pregel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// bcStep is what the vertices of bcProgram do in one superstep.
type bcStep int

const (
	bcWide    bcStep = iota // every vertex that runs broadcasts
	bcThin                  // one vertex in 29 broadcasts: too few arcs to pull
	bcSendOne               // wide, and one vertex Sends instead of broadcasting
	bcMixed                 // wide, and one vertex Sends before and after its broadcast
	bcTwice                 // wide, and one vertex broadcasts twice
	bcRemove                // wide, and one vertex in 11 removes itself
	bcHalt                  // nobody sends; every vertex halts
)

// bcPlan is bcProgram's superstep schedule, Init first.
var bcPlan = []bcStep{bcWide, bcWide, bcThin, bcSendOne, bcWide, bcTwice, bcMixed, bcRemove, bcWide, bcHalt}

// bcProgram broadcasts sums of values of very different magnitudes, so an
// inbox entry folded in another order, or from other senders, has other
// bits. Every call records its superstep and its inbox, bit for bit, and
// every broadcast adds its out-degree to its worker's arc count for the
// superstep. With perArc set a broadcast is a Send per out-arc instead of
// BroadcastOut: the reference BroadcastOut is held to.
type bcProgram struct {
	calls  [][]bcCall
	arcs   [][]int // [superstep][worker]
	perArc bool
}

type bcCall struct {
	step int
	msgs []uint64
}

func newBCProgram(n, workers int) *bcProgram {
	p := &bcProgram{calls: make([][]bcCall, n), arcs: make([][]int, len(bcPlan))}
	for s := range p.arcs {
		p.arcs[s] = make([]int, workers)
	}
	return p
}

// bcValue is vertex u's broadcast value at superstep s (k tells a second
// send of the superstep apart).
func bcValue(u VertexID, s, k int) float64 {
	h := inboxMix(uint64(u)<<20 ^ uint64(s)<<4 ^ uint64(k))
	return math.Ldexp(1+float64(h%1000)/1000, int(h>>40%48)-24)
}

func (p *bcProgram) Init(ctx *Context[struct{}, float64]) { p.Compute(ctx, nil) }

func (p *bcProgram) Compute(ctx *Context[struct{}, float64], msgs []float64) {
	u, s := ctx.ID(), ctx.Superstep()
	bits := make([]uint64, len(msgs))
	for i, m := range msgs {
		bits[i] = math.Float64bits(m)
	}
	p.calls[u] = append(p.calls[u], bcCall{s, bits})
	h := inboxMix(uint64(u) ^ uint64(s)<<32)
	broadcast := func(k int) {
		if p.perArc {
			for it := ctx.OutArcs(); it.Next(); {
				ctx.Send(it.To(), bcValue(u, s, k))
			}
		} else {
			ctx.BroadcastOut(bcValue(u, s, k))
		}
		p.arcs[s][ctx.Worker()] += ctx.OutDegree()
	}
	send := func(k int) { ctx.Send(VertexID((int(u)*7+s)%ctx.NumVertices()), bcValue(u, s, k)) }
	odd := u == VertexID(ctx.NumVertices()*2/3) // the vertex that breaks the pattern
	switch bcPlan[s] {
	case bcWide:
		broadcast(0)
	case bcThin:
		if h%29 == 0 {
			broadcast(0)
		}
	case bcSendOne:
		if odd {
			send(0)
		} else {
			broadcast(0)
		}
	case bcMixed:
		if odd {
			send(1)
		}
		broadcast(0)
		if odd {
			send(2)
		}
	case bcTwice:
		broadcast(0)
		if odd {
			broadcast(1)
		}
	case bcRemove:
		broadcast(0)
		if h%11 == 0 {
			ctx.RemoveSelf()
		}
	case bcHalt:
		ctx.VoteToHalt()
	}
}

// bcColdProgram starts through InitRange: superstep 0 runs only the
// vertices not 3 mod 16, the others keep their zero value and stay silent.
type bcColdProgram struct{ *bcProgram }

func (bcColdProgram) InitRange(_ int, lo, hi VertexID) (run []VertexID, ok bool) {
	for u := lo; u < hi; u++ {
		if u%16 != 3 {
			run = append(run, u)
		}
	}
	return run, true
}

// bcGraphs are a directed multigraph with self-loops, flat and compact, and
// an undirected one: every vertex has an out-arc, a few have parallel arcs.
func bcGraphs(rng *rand.Rand) map[string]*graph.Graph {
	n := 150 + rng.Intn(100)
	dir, und := graph.NewBuilder(n, true), graph.NewBuilder(n, false)
	for i := 0; i < 6*n; i++ {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		if i < n {
			u = VertexID(i)
		}
		if i%17 == 0 {
			v = u // a self-loop
		}
		reps := 1
		if i%13 == 0 {
			reps = 3 // parallel arcs
		}
		for r := 0; r < reps; r++ {
			dir.AddEdge(u, v)
			und.AddEdge(u, v)
		}
	}
	flat := dir.Finalize()
	return map[string]*graph.Graph{"flat": flat, "compact": graph.MustCompact(flat), "undirected": und.Finalize()}
}

// TestBroadcastPullMatchesPush holds the pull delivery to push: on every
// worker count, graph representation and program step — thin supersteps,
// Send and BroadcastOut mixed on one vertex and across workers, a second
// broadcast, removed receivers, a cold start through InitRange — the run
// the engine decides, a run that pulls wherever the superstep allows and a
// run that always pushes see the inboxes bit for bit and the StepStats of
// a run that sends along each out-arc in place of every BroadcastOut, and
// the decided run pulls exactly in the wide supersteps.
func TestBroadcastPullMatchesPush(t *testing.T) {
	sum := CombinerFunc[float64](func(a, b float64) float64 { return a + b })
	for seed := int64(1); seed <= 3; seed++ {
		graphs := bcGraphs(rand.New(rand.NewSource(seed)))
		for _, gname := range []string{"flat", "compact", "undirected"} {
			g := graphs[gname]
			for workers := 1; workers <= 7; workers++ {
				for _, cold := range []bool{false, true} {
					name := fmt.Sprintf("seed%d/%s/w%d/cold=%v", seed, gname, workers, cold)
					type outcome struct {
						prog   *bcProgram
						steps  []StepStats
						pulled []bool
					}
					run := func(mode delivery, perArc bool) outcome {
						p := newBCProgram(g.NumVertices(), workers)
						p.perArc = perArc
						e := New[struct{}, float64](g, Options{Workers: workers})
						e.SetCombiner(sum)
						e.deliver = mode
						var pulled []bool
						last := 0
						e.SetMasterHook(func(*MasterContext) {
							pulled = append(pulled, e.pulls > last)
							last = e.pulls
						})
						var prog Program[struct{}, float64] = p
						if cold {
							prog = bcColdProgram{p}
						}
						st, err := e.Run(prog)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i := range st.Steps {
							st.Steps[i].Duration = 0
						}
						return outcome{p, st.Steps, pulled}
					}
					ref := run(deliverAuto, true)
					auto, pull, push := run(deliverAuto, false), run(deliverPull, false), run(deliverPush, false)
					for _, o := range []struct {
						mode string
						got  outcome
					}{{"auto", auto}, {"pull", pull}, {"push", push}} {
						if !slices.Equal(o.got.steps, ref.steps) {
							t.Fatalf("%s: %s StepStats differ from sends per arc:\n%+v\n%+v", name, o.mode, o.got.steps, ref.steps)
						}
						for u := range ref.prog.calls {
							if !slices.EqualFunc(o.got.prog.calls[u], ref.prog.calls[u], func(a, b bcCall) bool {
								return a.step == b.step && slices.Equal(a.msgs, b.msgs)
							}) {
								t.Fatalf("%s: vertex %d's inboxes under %s differ from sends per arc:\n%v\n%v", name, u, o.mode, o.got.prog.calls[u], ref.prog.calls[u])
							}
						}
					}
					if slices.Contains(push.pulled, true) || slices.Contains(ref.pulled, true) {
						t.Fatalf("%s: a pushing run pulled: push %v, sends per arc %v", name, push.pulled, ref.pulled)
					}
					for s, step := range bcPlan {
						one := step == bcSendOne || step == bcMixed || step == bcTwice
						silent := g.NumArcs()
						for _, a := range auto.prog.arcs[s] {
							silent -= a
						}
						wantAuto := !one && step != bcHalt && silent*pullSlack <= g.NumArcs()
						wantPull := !one && step != bcHalt
						if auto.pulled[s] != wantAuto || pull.pulled[s] != wantPull {
							t.Fatalf("%s: superstep %d (step %d, %d of %d arcs silent) pulled %v under auto and %v when forced, want %v and %v",
								name, s, step, silent, g.NumArcs(), auto.pulled[s], pull.pulled[s], wantAuto, wantPull)
						}
					}
					if !auto.pulled[1] || auto.pulled[2] {
						t.Fatalf("%s: the wide superstep 1 pulled %v, the thin superstep 2 pulled %v", name, auto.pulled[1], auto.pulled[2])
					}
				}
			}
		}
	}
}
