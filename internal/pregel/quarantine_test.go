package pregel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// quarantineProgram runs a fixed number of broadcast rounds on a cycle, but
// one victim vertex broadcasts and THEN panics at one superstep — so the
// test can prove the quarantine path retracts the partial sends of the
// panicking call, not just the calls that would have followed it.
type quarantineProgram struct {
	victim VertexID
	step   int
	rounds int
}

func (p quarantineProgram) Init(ctx *Context[sumVal, float64]) {
	ctx.BroadcastOut(1)
	if p.step == 0 && ctx.ID() == p.victim {
		panic("poisoned init")
	}
}

func (p quarantineProgram) Compute(ctx *Context[sumVal, float64], msgs []float64) {
	for _, m := range msgs {
		ctx.Value().Sum += m
	}
	if ctx.Superstep() < p.rounds {
		ctx.BroadcastOut(1)
	} else {
		ctx.VoteToHalt()
	}
	if ctx.Superstep() == p.step && ctx.ID() == p.victim {
		panic("poisoned compute")
	}
}

func TestQuarantineSkipsPanickingVertex(t *testing.T) {
	const n, victim, step, rounds = 64, 17, 2, 4
	g := graph.Cycle(n, true)
	for _, sched := range []Scheduler{ScanAll, WorkQueue} {
		t.Run(schedName(sched), func(t *testing.T) {
			withGoroutineCheck(t, func() {
				e := New[sumVal, float64](g, Options{Workers: 4, Scheduler: sched, Quarantine: true})
				stats, err := e.Run(quarantineProgram{victim: victim, step: step, rounds: rounds})
				if err != nil {
					t.Fatalf("quarantined run failed: %v", err)
				}
				if stats.Aborted {
					t.Fatalf("quarantined run reported aborted: %+v", stats)
				}
				if stats.Quarantined != 1 {
					t.Fatalf("Quarantined = %d, want 1", stats.Quarantined)
				}
				if len(stats.QuarantinedVertices) != 1 || stats.QuarantinedVertices[0] != victim {
					t.Fatalf("QuarantinedVertices = %v, want [%d]", stats.QuarantinedVertices, victim)
				}
				// The victim folded in its inbox at supersteps 1 and 2
				// before panicking, then froze.
				if got := e.Value(victim).Sum; got != 2 {
					t.Fatalf("victim value = %g, want 2", got)
				}
				// The victim's successor on the cycle receives the victim's
				// sends from supersteps 0 and 1 only: the superstep-2
				// broadcast happened before the panic but must be rolled
				// back, and the removed victim never runs again.
				if got := e.Value(victim + 1).Sum; got != 2 {
					t.Fatalf("successor value = %g, want 2 (partial send not retracted?)", got)
				}
				// A vertex far from the victim sees all rounds: messages
				// arrive at supersteps 1..rounds.
				if got := e.Value(victim + 10).Sum; got != rounds {
					t.Fatalf("distant value = %g, want %d", got, rounds)
				}
			})
		})
	}
}

func TestQuarantineInitPanic(t *testing.T) {
	g := graph.Cycle(8, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2, Quarantine: true})
		stats, err := e.Run(quarantineProgram{victim: 3, step: 0, rounds: 2})
		if err != nil {
			t.Fatalf("quarantined init panic aborted the run: %v", err)
		}
		if stats.Quarantined != 1 || stats.QuarantinedVertices[0] != 3 {
			t.Fatalf("stats = %+v, want vertex 3 quarantined", stats)
		}
		if got := e.Value(3).Sum; got != 0 {
			t.Fatalf("victim value = %g, want 0 (never computed)", got)
		}
		// Vertex 4 misses vertex 3's (retracted) init broadcast but gets
		// the superstep-1 round from nobody — 3 is removed — so only the
		// messages 3 would have sent are gone.
		if got := e.Value(4).Sum; got != 0 {
			t.Fatalf("successor value = %g, want 0", got)
		}
		if got := e.Value(5).Sum; got != 2 {
			t.Fatalf("bystander value = %g, want 2", got)
		}
	})
}

// Stats.String should surface the quarantine count so operators see it in
// logs without digging into the struct.
func TestQuarantineStatsString(t *testing.T) {
	s := Stats{Supersteps: 3, Quarantined: 2}
	if got := s.String(); !strings.Contains(got, "quarantined=2") {
		t.Fatalf("Stats.String() = %q, want quarantined=2", got)
	}
}

// With Quarantine off the existing abort contract is unchanged.
func TestQuarantineOffStillAborts(t *testing.T) {
	g := graph.Cycle(16, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2})
		_, err := e.Run(panicProgram{vertex: 5, step: 1})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError with Quarantine off", err)
		}
	})
}

// Panics outside a vertex program are not attributable to one vertex and
// must still abort even under Quarantine: here, a master hook.
func TestQuarantineMasterHookStillAborts(t *testing.T) {
	g := graph.Cycle(16, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2, Quarantine: true})
		e.SetMasterHook(func(mc *MasterContext) {
			if mc.Superstep() == 1 {
				panic("hook boom")
			}
		})
		_, err := e.Run(sumAllProgram{rounds: 5})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError from master hook under Quarantine", err)
		}
	})
}

// A panicking combiner runs inside the vertex call whose send it folds, but
// the fault is the combiner's, not that vertex's, so Quarantine must not
// swallow it.
func TestQuarantineCombinerStillAborts(t *testing.T) {
	g := graph.Complete(8, true)
	withGoroutineCheck(t, func() {
		e := New[sumVal, float64](g, Options{Workers: 2, Quarantine: true})
		e.SetCombiner(CombinerFunc[float64](func(a, b float64) float64 { panic("combiner boom") }))
		_, err := e.Run(sumAllProgram{rounds: 3})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want *RunError from combiner under Quarantine", err)
		}
	})
}
