package pregel

import (
	"io"
	"math"
	"testing"

	"repro/internal/graph"
)

// TestSteadyStateAllocs pins the engine's zero-allocation invariant: once
// the per-run scratch is warm (superstep >= 2), a superstep performs no
// heap allocation on the PageRank and SSSP message paths, under
// both schedulers, with and without Quarantine's undo log, and for
// PageRank's broadcasts delivered by pull and by push.
//
// Measuring "allocations per superstep" directly is awkward because Run
// drives the whole superstep loop, so the test measures the marginal cost:
// two runs of the same workload that differ only in how many steady-state
// supersteps they execute must allocate exactly the same amount. Any
// steady-state allocation shows up as >= 1 alloc per extra superstep;
// setup allocations (engine construction, goroutines, warm-up growth of
// outboxes and queues) cancel because both runs share them.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	g := graph.RMAT(10, 8, 0.57, 0.19, 0.19, true, 7)
	ring := graph.Cycle(64, true)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		sched := sched
		// ScanAll pagerank pulls every superstep it broadcasts in (the
		// in-source index is built at the first); its push twin and
		// WorkQueue push.
		for _, mode := range []delivery{deliverAuto, deliverPush} {
			name := "pagerank/" + schedName(sched)
			if mode == deliverPush {
				if sched == WorkQueue {
					continue
				}
				name += "/push"
			}
			t.Run(name, func(t *testing.T) {
				run := func(rounds int) func() int {
					return func() int {
						e := New[prVal, float64](g, Options{Workers: 4, Scheduler: sched, MaxSupersteps: 32})
						e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
						e.deliver = mode
						stats, err := e.Run(prProgram{rounds: rounds})
						if err != nil {
							t.Fatal(err)
						}
						want := rounds // prProgram broadcasts in supersteps 0 to rounds-1
						if sched == WorkQueue || mode == deliverPush {
							want = 0
						}
						if e.pulls != want {
							t.Fatalf("%d pull supersteps, want %d", e.pulls, want)
						}
						return stats.Supersteps
					}
				}
				checkMarginalAllocs(t, run(5), run(9))
			})
		}
		t.Run("pagerank/"+schedName(sched)+"/quarantine", func(t *testing.T) {
			run := func(rounds int) func() int {
				return func() int {
					e := New[prVal, float64](g, Options{Workers: 4, Scheduler: sched, MaxSupersteps: 32, Quarantine: true})
					e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { return a + b }))
					stats, err := e.Run(prProgram{rounds: rounds})
					if err != nil {
						t.Fatal(err)
					}
					return stats.Supersteps
				}
			}
			checkMarginalAllocs(t, run(5), run(9))
		})
		t.Run("sssp/"+schedName(sched), func(t *testing.T) {
			run := func(waves int) func() int {
				return func() int {
					e := New[ringVal, float64](ring, Options{Workers: 4, Scheduler: sched, MaxSupersteps: 400})
					e.SetCombiner(CombinerFunc[float64](math.Min))
					stats, err := e.Run(ringProgram{waves: waves, n: 64})
					if err != nil {
						t.Fatal(err)
					}
					return stats.Supersteps
				}
			}
			checkMarginalAllocs(t, run(2), run(4))
		})
	}
}

// TestCheckpointSteadyStateAllocs pins the checkpoint-capture cost: with a
// snapshot taken at every barrier into a byte sink, a warmed-up capture
// reuses the engine's Snapshot and encode buffer, so steady-state
// supersteps still show zero marginal allocation. (Writing checkpoint
// files naturally allocates in the OS write path; that cost is per
// checkpoint barrier only, which is what the marginal measurement proves —
// checkpointing-disabled behavior is pinned by TestSteadyStateAllocs.)
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ring := graph.Cycle(64, true)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		sched := sched
		t.Run(schedName(sched), func(t *testing.T) {
			run := func(waves int) func() int {
				return func() int {
					e := New[ringVal, float64](ring, Options{
						Workers:       4,
						Scheduler:     sched,
						MaxSupersteps: 400,
						Checkpoint:    CheckpointOptions{Every: 1, Sink: io.Discard},
					})
					e.SetCombiner(CombinerFunc[float64](math.Min))
					stats, err := e.Run(ringProgram{waves: waves, n: 64})
					if err != nil {
						t.Fatal(err)
					}
					return stats.Supersteps
				}
			}
			checkMarginalAllocs(t, run(2), run(4))
		})
	}
}

// checkMarginalAllocs runs both workloads under testing.AllocsPerRun and
// fails if the longer one allocates anything beyond the shorter: the
// difference divided by the extra supersteps is the steady-state allocs
// per superstep, which must be zero.
func checkMarginalAllocs(t *testing.T, short, long func() int) {
	t.Helper()
	var shortSteps, longSteps int
	shortAllocs := testing.AllocsPerRun(8, func() { shortSteps = short() })
	longAllocs := testing.AllocsPerRun(8, func() { longSteps = long() })
	extra := longSteps - shortSteps
	if extra <= 0 {
		t.Fatalf("workloads must differ in superstep count: short=%d long=%d", shortSteps, longSteps)
	}
	perStep := (longAllocs - shortAllocs) / float64(extra)
	if perStep != 0 {
		t.Fatalf("steady-state supersteps allocate: %.3f allocs/superstep over %d extra supersteps (short: %.0f allocs in %d steps, long: %.0f allocs in %d steps)",
			perStep, extra, shortAllocs, shortSteps, longAllocs, longSteps)
	}
}

// ringVal / ringProgram is an SSSP-shaped steady-state workload: a
// single relaxation wave circles a directed cycle carrying min-combined
// distances, one message per superstep. Each time the wave returns to
// vertex 0 it is relaunched with strictly smaller distances (so every
// relaxation improves), up to `waves` laps — giving a tunable number of
// identical steady-state supersteps.
type ringVal struct {
	Dist  float64
	Waves int // laps started, maintained by vertex 0 only
}

type ringProgram struct {
	waves int // total laps around the cycle
	n     int // cycle length
}

func (p ringProgram) Init(ctx *Context[ringVal, float64]) {
	v := ctx.Value()
	if ctx.ID() == 0 {
		v.Dist = 0
		ctx.BroadcastOut(1)
	} else {
		v.Dist = math.Inf(1)
	}
	ctx.VoteToHalt()
}

func (p ringProgram) Compute(ctx *Context[ringVal, float64], msgs []float64) {
	v := ctx.Value()
	best := math.Inf(1)
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	switch {
	case best < v.Dist:
		v.Dist = best
		ctx.BroadcastOut(best + 1)
	case ctx.ID() == 0 && len(msgs) > 0 && v.Waves+1 < p.waves:
		// The wave wrapped around; relaunch it below every current
		// distance so each vertex relaxes again.
		v.Waves++
		v.Dist -= 2 * float64(p.n)
		ctx.BroadcastOut(v.Dist + 1)
	}
	ctx.VoteToHalt()
}
