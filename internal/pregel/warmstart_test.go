package pregel

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
)

// wsProgram is a hop-count SSSP variant made for warm restarts: a vertex
// activated with an empty inbox re-announces its current distance, so
// activating the endpoints of an edge delta is enough to repair the
// fixpoint outward from the change.
type wsVal struct{ D float64 }

type wsProgram struct{}

func (wsProgram) Init(ctx *Context[wsVal, float64]) {
	v := ctx.Value()
	if ctx.ID() == 0 {
		v.D = 0
		ctx.BroadcastOut(1)
	} else {
		v.D = math.Inf(1)
	}
	ctx.VoteToHalt()
}

func (wsProgram) Compute(ctx *Context[wsVal, float64], msgs []float64) {
	v := ctx.Value()
	if len(msgs) == 0 {
		if !math.IsInf(v.D, 1) {
			ctx.BroadcastOut(v.D + 1)
		}
		ctx.VoteToHalt()
		return
	}
	best := math.Inf(1)
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < v.D {
		v.D = best
		ctx.BroadcastOut(v.D + 1)
	}
	ctx.VoteToHalt()
}

// terminalSnapshot runs prog on g to completion, capturing only the
// terminal barrier, and returns the decoded Done snapshot plus the stats.
// It also pins the way out: the snapshot the engine hands back as a value
// encodes to exactly the bytes the Sink received.
func terminalSnapshot(t *testing.T, g *graph.Graph, sched Scheduler) (*Snapshot, *Stats, []wsVal) {
	t.Helper()
	var sink bytes.Buffer
	e := New[wsVal, float64](g, Options{
		Workers:    3,
		Scheduler:  sched,
		Checkpoint: CheckpointOptions{Sink: &sink},
	})
	e.SetCombiner(CombinerFunc[float64](math.Min))
	stats, err := e.Run(wsProgram{})
	if err != nil {
		t.Fatal(err)
	}
	s, rest, err := DecodeSnapshot(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("sink holds %d trailing bytes; expected exactly the terminal snapshot", len(rest))
	}
	if !s.Done {
		t.Fatal("terminal snapshot not marked Done")
	}
	val, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(val.AppendTo(nil), sink.Bytes()) {
		t.Fatal("Engine.Snapshot() does not encode to the bytes the Sink received")
	}
	return s, stats, append([]wsVal(nil), e.Values()...)
}

// TestWarmStartDeltaRecompute is the engine-level delta-recomputation
// story: converge on a path, add a shortcut edge via graph.ApplyDelta,
// warm-start from the converged snapshot activating only the edge's
// endpoints, and require the repaired fixpoint to be bit-identical to a
// from-scratch run on the mutated graph — in strictly fewer supersteps
// and messages.
func TestWarmStartDeltaRecompute(t *testing.T) {
	g := graph.Path(24, true)
	oldFP := g.Fingerprint()
	d := &graph.Delta{}
	d.AddEdge(0, 18)
	mg, ad, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}

	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			snap, _, _ := terminalSnapshot(t, g, ScanAll) // snapshot scheduler may differ

			// Ground truth: from-scratch on the mutated graph.
			scratch := New[wsVal, float64](mg, Options{Workers: 3, Scheduler: sched})
			scratch.SetCombiner(CombinerFunc[float64](math.Min))
			scratchStats, err := scratch.Run(wsProgram{})
			if err != nil {
				t.Fatal(err)
			}

			warm := New[wsVal, float64](mg, Options{
				Workers:   3,
				Scheduler: sched,
				Seed:      Warm(snap, ad.Touched(g.NumVertices()), oldFP, false),
			})
			warm.SetCombiner(CombinerFunc[float64](math.Min))
			warmStats, err := warm.Run(wsProgram{})
			if err != nil {
				t.Fatal(err)
			}
			for u := range scratch.Values() {
				got := warm.Value(VertexID(u)).D
				want := scratch.Value(VertexID(u)).D
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("vertex %d: warm D = %g, scratch D = %g", u, got, want)
				}
			}
			if warmStats.Supersteps >= scratchStats.Supersteps {
				t.Errorf("warm restart took %d supersteps, scratch %d — expected strictly fewer",
					warmStats.Supersteps, scratchStats.Supersteps)
			}
			if warmStats.MessagesSent >= scratchStats.MessagesSent {
				t.Errorf("warm restart sent %d messages, scratch %d — expected strictly fewer",
					warmStats.MessagesSent, scratchStats.MessagesSent)
			}
			// Only the activated frontier ran in the first superstep.
			if got, want := warmStats.Steps[0].ActiveVertices, len(ad.Touched(g.NumVertices())); got != want {
				t.Errorf("first warm superstep ran %d vertices, want %d", got, want)
			}
		})
	}
}

// TestWarmStartEmptyFrontier: warm-starting with nothing to activate must
// converge immediately with the restored values intact.
func TestWarmStartEmptyFrontier(t *testing.T) {
	g := graph.Path(10, true)
	snap, _, want := terminalSnapshot(t, g, ScanAll)
	e := New[wsVal, float64](g, Options{
		Workers: 2,
		Seed:    Warm(snap, nil, 0, false),
	})
	stats, err := e.Run(wsProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 {
		t.Errorf("empty warm start took %d supersteps, want 1", stats.Supersteps)
	}
	for u, w := range want {
		if got := e.Value(VertexID(u)); got != w {
			t.Fatalf("value[%d] = %+v, want %+v", u, got, w)
		}
	}
}

// slowProgram sleeps in every Compute call, modelling a worker whose
// vertices are individually slow (not wedged).
type slowProgram struct{ d time.Duration }

func (slowProgram) Init(ctx *Context[int, int]) {}

func (p slowProgram) Compute(ctx *Context[int, int], msgs []int) {
	time.Sleep(p.d)
	ctx.VoteToHalt()
}

// panicAtProgram panics in Compute at a chosen superstep.
type panicAtProgram struct{ at int }

func (panicAtProgram) Init(ctx *Context[int, int]) { ctx.BroadcastOut(1) }

func (p panicAtProgram) Compute(ctx *Context[int, int], msgs []int) {
	if ctx.Superstep() == p.at && ctx.ID() == 0 {
		panic("boom")
	}
	ctx.BroadcastOut(1)
	ctx.VoteToHalt()
}

// TestCheckpointSuperstepRecorded pins Stats.CheckpointSuperstep on the
// normal and panic-abort paths: it must always name the superstep the
// CheckpointPath snapshot captured, which after a panic is the last
// periodic snapshot — behind Stats.Supersteps.
func TestCheckpointSuperstepRecorded(t *testing.T) {
	g := graph.Cycle(8, true)

	// No checkpointing: stays -1.
	e := New[int, int](g, Options{Workers: 2, MaxSupersteps: 4})
	stats, err := e.Run(slowProgram{d: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointSuperstep != -1 {
		t.Errorf("no-checkpoint run: CheckpointSuperstep = %d, want -1", stats.CheckpointSuperstep)
	}

	// Terminal snapshot: matches the record the path names.
	dir := t.TempDir()
	e = New[int, int](g, Options{
		Workers:    2,
		Checkpoint: CheckpointOptions{Every: 1, Dir: dir},
	})
	stats, err = e.Run(slowProgram{d: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointPath != recordAt(t, dir, stats.CheckpointSuperstep) {
		t.Errorf("CheckpointSuperstep %d does not match CheckpointPath %q",
			stats.CheckpointSuperstep, stats.CheckpointPath)
	}

	// Panic abort: no fresh snapshot, so CheckpointSuperstep names the
	// last periodic one and trails Supersteps.
	dir = t.TempDir()
	e = New[int, int](g, Options{
		Workers:    2,
		Checkpoint: CheckpointOptions{Every: 2, Dir: dir},
	})
	stats, err = e.Run(panicAtProgram{at: 4})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if stats.CheckpointPath == "" {
		t.Fatal("panic abort left no CheckpointPath")
	}
	if k := chainSnapshot(t, stats.CheckpointPath).Superstep; stats.CheckpointSuperstep != k {
		t.Errorf("CheckpointSuperstep = %d, path says %d", stats.CheckpointSuperstep, k)
	}
	if stats.CheckpointSuperstep >= stats.Supersteps {
		t.Errorf("CheckpointSuperstep %d should trail Supersteps %d after a panic abort",
			stats.CheckpointSuperstep, stats.Supersteps)
	}
}
