package pregel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// cmMsg is a message of the combine tests: its sender, its class (-1 is
// never combined) and a payload the combiner folds order-sensitively, so a
// fold in any order but the send order changes the bits.
type cmMsg struct {
	From  VertexID
	Class int8
	H     uint64
}

type cmCombiner struct{ classes int }

func (cmCombiner) Combine(acc, m *cmMsg) { acc.H = acc.H*1099511628211 ^ m.H }
func (c cmCombiner) Classes() int        { return c.classes }
func (cmCombiner) Class(m *cmMsg) int    { return int(m.Class) }

// cmInbox is what one vertex received at one superstep, in delivery order.
type cmInbox struct {
	Step int
	Msgs []cmMsg
}

type cmVal struct{ In []cmInbox }

// cmProgram sends, for a fixed number of rounds, one message per out-arc
// whose class and payload depend only on (sender, arc index, superstep) —
// so a run sends the same messages whether or not they are combined — and
// records every inbox. The poison vertex, if any, panics at poisonStep after
// it has sent, having noted in *probe what its combined sends did.
type cmProgram struct {
	rounds, classes int
	poison          int
	poisonStep      int
	probe           *foldProbe
}

// foldProbe records what the poison vertex's combined sends did to its
// worker's buckets: folded into an envelope an earlier vertex opened,
// opened an envelope, and folded into an envelope it had opened itself.
type foldProbe struct{ intoEarlier, opened, intoOwn bool }

func (p cmProgram) send(ctx *Context[cmVal, cmMsg]) {
	id, s := int(ctx.ID()), ctx.Superstep()
	w := ctx.w
	probing := id == p.poison && s == p.poisonStep && w.foldTab != nil
	var mark []int
	if probing {
		for _, bucket := range w.outTo {
			mark = append(mark, len(bucket))
		}
	}
	k := 0
	for it := ctx.OutArcs(); it.Next(); k++ {
		to, m := it.To(), cmMsg{
			From:  ctx.ID(),
			Class: cmClass(id+k+s, p.classes),
			H:     uint64(id)<<40 | uint64(k)<<8 | uint64(s),
		}
		d := ctx.eng.ownerOf(to)
		held := len(w.outTo[d])
		ctx.Send(to, m)
		if !probing || m.Class < 0 {
			continue
		}
		switch slot := int(w.foldTab[int(to)*p.classes+int(m.Class)].slot); {
		case len(w.outTo[d]) > held:
			p.probe.opened = true
		case slot < mark[d]:
			p.probe.intoEarlier = true
		default:
			p.probe.intoOwn = true
		}
	}
	if id == p.poison && s == p.poisonStep {
		panic("poisoned after sending")
	}
}

// cmClass spreads x over the classes, every sixteenth message passing
// through: rare enough that buckets still have most of their load to shed.
func cmClass(x, classes int) int8 {
	if x%16 == 0 {
		return -1
	}
	return int8(x % classes)
}

func (p cmProgram) Init(ctx *Context[cmVal, cmMsg]) { p.send(ctx) }

func (p cmProgram) Compute(ctx *Context[cmVal, cmMsg], msgs []cmMsg) {
	v := ctx.Value()
	v.In = append(v.In, cmInbox{ctx.Superstep(), append([]cmMsg(nil), msgs...)})
	if ctx.Superstep() < p.rounds {
		p.send(ctx)
	} else {
		ctx.VoteToHalt()
	}
}

// foldInbox is the reference: an uncombined inbox — ordered by sending
// worker, then by send order — folded per (sending worker, class) in that
// order, an envelope staying where its first message was.
func foldInbox(raw []cmMsg, block int, c cmCombiner) []cmMsg {
	var out []cmMsg
	at := map[[2]int]int{}
	for _, m := range raw {
		if m.Class >= 0 {
			key := [2]int{int(m.From) / block, int(m.Class)}
			if p, ok := at[key]; ok {
				c.Combine(&out[p], &m)
				continue
			}
			at[key] = len(out)
		}
		out = append(out, m)
	}
	return out
}

// checkCombinedRun runs prog over g with and without the combiner and
// compares every inbox of the combined run, bit for bit, to the uncombined
// run's folded by foldInbox: folding each message as it is sent must not be
// told from folding the uncombined outbox afterwards.
func checkCombinedRun(g *graph.Graph, opts Options, prog cmProgram) error {
	comb := cmCombiner{prog.classes}
	run := func(combine bool) (*Engine[cmVal, cmMsg], *Stats, error) {
		e := New[cmVal, cmMsg](g, opts)
		if combine {
			e.SetCombiner(comb)
		}
		st, err := e.Run(prog)
		return e, st, err
	}
	plain, plainStats, err := run(false)
	if err != nil {
		return err
	}
	combined, stats, err := run(true)
	if err != nil {
		return err
	}
	if stats.MessagesSent != plainStats.MessagesSent || stats.Quarantined != plainStats.Quarantined {
		return fmt.Errorf("combining changed the run: sent %d vs %d, quarantined %d vs %d",
			stats.MessagesSent, plainStats.MessagesSent, stats.Quarantined, plainStats.Quarantined)
	}
	var envelopes int64
	for u, pv := range plain.Values() {
		cv := combined.Value(VertexID(u))
		if len(cv.In) != len(pv.In) {
			return fmt.Errorf("vertex %d ran %d supersteps combined, %d uncombined", u, len(cv.In), len(pv.In))
		}
		for i, in := range pv.In {
			want := foldInbox(in.Msgs, plain.block, comb)
			envelopes += int64(len(want))
			if got := cv.In[i]; got.Step != in.Step || !reflect.DeepEqual(got.Msgs, want) {
				return fmt.Errorf("vertex %d superstep %d: inbox\n got %v\nwant %v", u, in.Step, got.Msgs, want)
			}
		}
	}
	// Envelopes to a quarantined vertex are counted at the barrier after its
	// removal but never read, so only a clean run's total is checkable.
	if stats.Quarantined == 0 && stats.CombinedMessages != envelopes {
		return fmt.Errorf("CombinedMessages = %d, inboxes hold %d", stats.CombinedMessages, envelopes)
	}
	return nil
}

// randomMultigraph has few vertices and many parallel arcs, so most messages
// have something to combine with.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(40)
	b := graph.NewBuilder(n, true)
	for i, m := 0, 10*n+rng.Intn(70*n); i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Finalize()
}

// Property: combined delivery is the uncombined delivery folded per
// (destination, class) in send order, whatever the worker count, scheduler
// and class space, with a pass-through class in the mix.
func TestCombinedInboxIsSendOrderFoldProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomMultigraph(rand.New(rand.NewSource(seed)))
		for _, workers := range []int{1, 2, 4} {
			for _, sched := range []Scheduler{ScanAll, WorkQueue} {
				for classes := 1; classes <= 3; classes++ {
					prog := cmProgram{rounds: 3, classes: classes, poison: -1}
					if err := checkCombinedRun(g, Options{Workers: workers, Scheduler: sched}, prog); err != nil {
						t.Logf("seed %d workers %d %s classes %d: %v", seed, workers, schedName(sched), classes, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineRollsBackFoldedSends: a vertex late in its worker's range
// folds into envelopes that earlier vertices opened, opens envelopes of its
// own, sends twice to one (destination, class) pair and then panics. Its
// sends, and only its sends, are retracted — the envelopes earlier
// vertices' messages were folded into hold exactly those messages again.
func TestQuarantineRollsBackFoldedSends(t *testing.T) {
	const n = 34
	for _, workers := range []int{1, 2} {
		poison := (n+workers-1)/workers - 1 // the last vertex worker 0 runs
		// 800 random arcs among vertices 1..n-1, and four parallel arcs
		// from the poisoned vertex to vertex 0, which hears from no one
		// else: the pairs it opens there are its own.
		rng := rand.New(rand.NewSource(13))
		b := graph.NewBuilder(n, true)
		for i := 0; i < 800; i++ {
			b.AddEdge(graph.VertexID(1+rng.Intn(n-1)), graph.VertexID(1+rng.Intn(n-1)))
		}
		for i := 0; i < 4; i++ {
			b.AddEdge(graph.VertexID(poison), 0)
		}
		g := b.Finalize()
		for _, sched := range []Scheduler{ScanAll, WorkQueue} {
			var probe foldProbe
			prog := cmProgram{rounds: 3, classes: 2, poison: poison, poisonStep: 1, probe: &probe}
			opts := Options{Workers: workers, Scheduler: sched, Quarantine: true}
			if err := checkCombinedRun(g, opts, prog); err != nil {
				t.Fatalf("workers %d %s: %v", workers, schedName(sched), err)
			}
			if probe != (foldProbe{intoEarlier: true, opened: true, intoOwn: true}) {
				t.Fatalf("workers %d %s: vertex %d's sends did not fold every way: %+v", workers, schedName(sched), poison, probe)
			}
			// checkCombinedRun compared against an uncombined run with the
			// same poison; make sure that reference is itself a rollback.
			e := New[cmVal, cmMsg](g, opts)
			e.SetCombiner(cmCombiner{prog.classes})
			stats, err := e.Run(prog)
			if err != nil || stats.Quarantined != 1 {
				t.Fatalf("quarantined = %d, err = %v", stats.Quarantined, err)
			}
			for u, v := range e.Values() {
				for _, in := range v.In {
					for _, m := range in.Msgs {
						if int(m.From) == poison && in.Step == prog.poisonStep+1 {
							t.Fatalf("vertex %d received %v, sent by the quarantined call", u, m)
						}
					}
				}
			}
		}
	}
}

// TestOutboxBoundedByDistinctDestinations: 2000 senders with 8 arcs each
// into 16 hubs put 16000 messages per superstep through one bucket. Each
// message folds as it is sent, so the bucket never holds more than the 16
// distinct destinations and ends sized by them, not by the 16000.
func TestOutboxBoundedByDistinctDestinations(t *testing.T) {
	const hubs, senders, fan = 16, 2000, 8
	b := graph.NewBuilder(hubs+senders, true)
	for s := 0; s < senders; s++ {
		for k := 0; k < fan; k++ {
			b.AddEdge(graph.VertexID(hubs+s), graph.VertexID((s+k)%hubs))
		}
	}
	e := New[sumVal, float64](b.Finalize(), Options{Workers: 1})
	e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
	stats, err := e.Run(sumAllProgram{rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(senders * fan * 3); stats.MessagesSent != want {
		t.Fatalf("sent %d, want %d", stats.MessagesSent, want)
	}
	if c := cap(e.workers[0].outTo[0]); c > 2*hubs {
		t.Fatalf("bucket capacity %d after %d sends per superstep to %d destinations", c, senders*fan, hubs)
	}
}
