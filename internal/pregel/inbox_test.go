package pregel

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The generative inbox suite: random programs whose vertices halt, remove
// themselves, are revived by mail and are sent mail after removal, on
// ranges large enough that every worker's block straddles 64-bit words of
// the scheduling bitsets. Every vertex records each call it receives — the
// superstep and the exact inbox — and the records of every configuration
// are checked against the single-worker ScanAll run.

// inboxMsg is one envelope: its sender, the superstep it was sent in, its
// index among the sender's sends that superstep, and a payload derived
// from the sender's state. Worker and Ticket — the sending worker and the
// sender's run ordinal on it — serve only the order check.
type inboxMsg struct {
	From, Step, K  uint32
	Worker, Ticket uint32
	P              uint64
}

type inboxVal struct{ H uint64 }

// inboxCall is one Init/Compute call as the vertex saw it.
type inboxCall struct {
	step int
	msgs []inboxMsg
}

// inboxProgram folds its inbox commutatively, so which vertices run and
// what they send is independent of inbox order and worker count; only the
// order itself may differ, and the suite checks it separately.
type inboxProgram struct {
	seed    uint64
	n       int
	last    int      // from this superstep on, vertices send nothing and halt
	tickets []uint32 // per worker run counter
	calls   [][]inboxCall
}

func newInboxProgram(seed uint64, n, last, workers int) *inboxProgram {
	return &inboxProgram{seed: seed, n: n, last: last, tickets: make([]uint32, workers), calls: make([][]inboxCall, n)}
}

// inboxMix is the splitmix64 finalizer.
func inboxMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (p *inboxProgram) Init(ctx *Context[inboxVal, inboxMsg]) { p.Compute(ctx, nil) }

func (p *inboxProgram) Compute(ctx *Context[inboxVal, inboxMsg], msgs []inboxMsg) {
	u, step := ctx.ID(), ctx.Superstep()
	p.calls[u] = append(p.calls[u], inboxCall{step, slices.Clone(msgs)})
	h := ctx.Value().H
	for _, m := range msgs {
		h += inboxMix(m.P ^ uint64(m.From)<<32 ^ uint64(m.K))
	}
	h = inboxMix(h ^ p.seed ^ uint64(step)<<40 ^ uint64(u))
	ctx.Value().H = h
	if step >= p.last {
		ctx.VoteToHalt()
		return
	}
	w := ctx.Worker()
	p.tickets[w]++
	for k := uint64(0); k < h%4; k++ {
		to := VertexID(inboxMix(h+k) % uint64(p.n))
		ctx.Send(to, inboxMsg{From: uint32(u), Step: uint32(step), K: uint32(k), Worker: uint32(w), Ticket: p.tickets[w], P: h + k})
	}
	switch r := (h >> 8) % 32; {
	case r == 0:
		ctx.RemoveSelf()
	case r < 24:
		ctx.VoteToHalt()
	}
}

// inboxCase is one drawn program: a vertex count, a seed, the superstep
// sends stop at, and the superstep (or -1) after which the master hook
// reactivates every vertex.
type inboxCase struct {
	n, last, wake int
	seed          uint64
}

func (c inboxCase) String() string {
	return fmt.Sprintf("n=%d last=%d wake=%d seed=%d", c.n, c.last, c.wake, c.seed)
}

// inboxRun is one run's observable outcome.
type inboxRun struct {
	calls  [][]inboxCall
	values []inboxVal
	stats  *Stats
	snaps  []*Snapshot // one per barrier, when captured
}

func runInbox(c inboxCase, g *graph.Graph, opts Options, capture bool) (*inboxRun, error) {
	var sink bytes.Buffer
	if capture {
		opts.Checkpoint = CheckpointOptions{Every: 1, Sink: &sink}
	}
	e := New[inboxVal, inboxMsg](g, opts)
	e.SetMasterHook(func(mc *MasterContext) {
		if mc.Superstep() == c.wake {
			mc.ActivateAll()
		}
	})
	p := newInboxProgram(c.seed, c.n, c.last, e.Workers())
	st, err := e.Run(p)
	if err != nil {
		return nil, err
	}
	// Mail is only ever dropped for a removed receiver, which never runs
	// again: everything delivered is read by exactly one call.
	read := 0
	for _, calls := range p.calls {
		for _, call := range calls {
			read += len(call.msgs)
		}
	}
	if opts.Seed == nil && int64(read) != st.CombinedMessages {
		return nil, fmt.Errorf("%d messages delivered, %d read", st.CombinedMessages, read)
	}
	r := &inboxRun{calls: p.calls, values: e.Values(), stats: st}
	for b := sink.Bytes(); len(b) > 0; {
		s, rest, err := DecodeSnapshot(b)
		if err != nil {
			return nil, err
		}
		r.snaps, b = append(r.snaps, s), rest
	}
	return r, nil
}

// checkInboxes compares run against the reference ref from superstep from
// on. Every inbox must be ordered by sending worker, then send order; a
// ScanAll run runs each worker's vertices in ID order, so its inboxes must
// also equal the reference's exactly, and a WorkQueue run's must hold the
// same envelopes.
func checkInboxes(ref, run *inboxRun, from int, exact bool) error {
	strip := func(ms []inboxMsg) []inboxMsg {
		out := slices.Clone(ms)
		for i := range out {
			out[i].Worker, out[i].Ticket = 0, 0
		}
		return out
	}
	for u := range ref.calls {
		want := ref.calls[u]
		for len(want) > 0 && want[0].step < from {
			want = want[1:]
		}
		got := run.calls[u]
		if len(got) != len(want) {
			return fmt.Errorf("vertex %d ran %d times from superstep %d, want %d", u, len(got), from, len(want))
		}
		for i, call := range got {
			if call.step != want[i].step {
				return fmt.Errorf("vertex %d call %d at superstep %d, want %d", u, i, call.step, want[i].step)
			}
			for j := 1; j < len(call.msgs); j++ {
				a, b := call.msgs[j-1], call.msgs[j]
				if a.Worker > b.Worker || a.Worker == b.Worker && (a.Ticket > b.Ticket || a.Ticket == b.Ticket && a.K >= b.K) {
					return fmt.Errorf("vertex %d superstep %d: inbox out of (worker, send) order at %d: %+v then %+v", u, call.step, j, a, b)
				}
			}
			g, w := strip(call.msgs), strip(want[i].msgs)
			if !exact {
				order := func(a, b inboxMsg) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.K, b.K)) }
				slices.SortFunc(g, order)
				slices.SortFunc(w, order)
			}
			if !slices.Equal(g, w) {
				return fmt.Errorf("vertex %d superstep %d: inbox %v, want %v", u, call.step, g, w)
			}
		}
	}
	for u := range ref.values {
		if run.values[u] != ref.values[u] {
			return fmt.Errorf("value[%d] = %x, want %x", u, run.values[u].H, ref.values[u].H)
		}
	}
	return nil
}

// TestInboxSequenceProperty draws programs over up to ~700 vertices and
// runs each under Workers {1, 3, 5, 8} × both schedulers: every run's per
// vertex, per superstep inbox must match the Workers=1 ScanAll run (see
// checkInboxes), every exact count in Stats must agree, and so must a
// Continue from the snapshot taken at every barrier of the run.
func TestInboxSequenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := 10
	if testing.Short() {
		cases = 3
	}
	for i := 0; i < cases; i++ {
		c := inboxCase{n: 1 + rng.Intn(700), last: 4 + rng.Intn(10), wake: -1, seed: rng.Uint64()}
		if i < 2 {
			c.n = 640 + rng.Intn(60)
		}
		if rng.Intn(2) == 0 {
			c.wake = 1 + rng.Intn(c.last)
		}
		g := graph.NewBuilder(c.n, true).Finalize()
		t.Run(c.String(), func(t *testing.T) {
			ref, err := runInbox(c, g, Options{Workers: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []Scheduler{ScanAll, WorkQueue} {
				for _, workers := range []int{1, 3, 5, 8} {
					opts := Options{Workers: workers, Scheduler: sched}
					name := fmt.Sprintf("%s/workers=%d", schedName(sched), workers)
					run, err := runInbox(c, g, opts, true)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := checkInboxes(ref, run, 0, sched == ScanAll); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rs, fs := ref.stats, run.stats
					if fs.Supersteps != rs.Supersteps || fs.MessagesSent != rs.MessagesSent ||
						fs.CombinedMessages != rs.CombinedMessages || fs.TotalActive != rs.TotalActive {
						t.Fatalf("%s: stats %v, want %v", name, fs, rs)
					}
					if len(run.snaps) != fs.Supersteps {
						t.Fatalf("%s: %d snapshots for %d supersteps", name, len(run.snaps), fs.Supersteps)
					}
					for b, snap := range run.snaps {
						opts.Seed = Continue(snap)
						res, err := runInbox(c, g, opts, false)
						if err != nil {
							t.Fatalf("%s: continue from barrier %d: %v", name, b, err)
						}
						if err := checkInboxes(ref, res, b+1, sched == ScanAll); err != nil {
							t.Fatalf("%s: continue from barrier %d: %v", name, b, err)
						}
						if got, want := res.stats.Supersteps, fs.Supersteps-(b+1); got != want {
							t.Fatalf("%s: continue from barrier %d ran %d supersteps, want %d", name, b, got, want)
						}
					}
				}
			}
		})
	}
}
