package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pregel"
)

// masterHook drives the compiled statement state machine: prime → body
// transitions, iteration counting, until{} evaluation with the fixpoint
// aggregator, quiescence fast-forwarding (the halt-by-default runtime of
// §6.6/§9), and final termination.
func (m *Machine) masterHook(mc *pregel.MasterContext) {
	if m.masterErr != nil {
		mc.Stop()
		return
	}
	gl := mc.Globals().(*globals)
	if len(m.prog.Phases) == 0 {
		mc.Stop()
		return
	}
	switch gl.Mode {
	case modePrime:
		// The prime superstep (superstep 0 folds init into it) just
		// finished. A body run can differ from the primed state even
		// without messages, so every vertex runs the first body superstep
		// — unless the compiler proved the phase quiet (core.Phase.Quiet):
		// then only the vertices the prime's messages reach run it, plus
		// those its wake guards kept awake.
		*gl = globals{Phase: gl.Phase, Mode: modeBody, Iter: 1}
		if !m.prog.Phases[gl.Phase].Quiet {
			mc.ActivateAll()
		} else if quiescent(mc) {
			// Nothing woke, so the first body superstep would be a no-op on
			// every vertex: conclude it without running it.
			m.endBody(mc, gl, true, true)
		}
	case modeRepair:
		// The repair frontier has injected its corrections; body supersteps
		// now propagate them outward. Deliberately no ActivateAll: only
		// vertices woken by repair messages (or kept active by the planner)
		// run, which is what makes a small delta cheap. The iteration
		// counter restarts so iteration-bounded until{} conditions grant the
		// repair wave a full budget; quiescence fast-forwarding still ends
		// the phase as soon as the wave dies out.
		*gl = globals{Phase: gl.Phase, Mode: modeBody, Iter: 1}
	case modeBody:
		m.iterations[gl.Phase]++
		m.endBody(mc, gl, mc.AggValue(aggUnchanged) != 0, quiescent(mc))
	}
}

// quiescent reports that no vertex is active and no message is in flight.
func quiescent(mc *pregel.MasterContext) bool {
	return mc.NextActive() == 0 && mc.Step().CombinedMessages == 0
}

// endBody concludes body superstep gl.Iter of gl's phase: it advances past
// the phase, fails it, or sets up the next iteration. fix is the fixpoint
// aggregator's value (no vertex changed a field), idle whether the run is
// quiescent.
func (m *Machine) endBody(mc *pregel.MasterContext, gl *globals, fix, idle bool) {
	ph := &m.prog.Phases[gl.Phase]
	if ph.Kind == core.PhaseStep {
		m.advance(mc, gl)
		return
	}
	if m.x.untilSatisfied(gl.Phase, gl.Iter, fix) {
		m.advance(mc, gl)
		return
	}
	if gl.Iter >= m.prog.Opts.MaxIterations {
		m.failf(mc, "phase %d: iteration limit %d reached", gl.Phase, m.prog.Opts.MaxIterations)
		return
	}
	if idle {
		// No vertex can change any more, so every future body
		// superstep is a no-op; fast-forward the iteration counter to
		// the first satisfying value (with fixpoint = true) instead
		// of spinning. The loop is master-side and can be long (up to
		// MaxIterations evaluations), so it honors the run's context
		// at a coarse stride.
		for k := gl.Iter + 1; k <= m.prog.Opts.MaxIterations; k++ {
			if k%4096 == 0 && m.runCtx != nil && m.runCtx.Err() != nil {
				m.failf(mc, "phase %d: until{} fast-forward aborted: %v", gl.Phase, m.runCtx.Err())
				return
			}
			if m.x.untilSatisfied(gl.Phase, k, true) {
				m.advance(mc, gl)
				return
			}
		}
		m.failf(mc, "phase %d: computation quiesced but until{} can never hold", gl.Phase)
		return
	}
	if m.repair != nil && m.repairBudget > 0 && m.iterations[gl.Phase] >= m.repairBudget {
		// The repair wave is past break-even: each additional superstep
		// costs what a from-scratch superstep costs, and the budget says
		// a rerun is now cheaper. Abort with the sentinel so callers
		// take that fallback.
		m.masterErr = fmt.Errorf("vm: %w: repair ran %d body supersteps without converging (budget %d) — rerun from scratch",
			ErrRepairBudget, m.iterations[gl.Phase], m.repairBudget)
		mc.Stop()
		return
	}
	gl.Iter++
	if !ph.Halts {
		// Halt-by-default is off for this phase (scratch groups or an
		// iteration-dependent body): every vertex runs every body
		// superstep, as a hand-written Pregel+ program would.
		mc.ActivateAll()
	}
}

func (m *Machine) failf(mc *pregel.MasterContext, format string, args ...any) {
	m.masterErr = fmt.Errorf("vm: %s", fmt.Sprintf(format, args...))
	mc.Stop()
}

// advance moves the state machine past gl's phase.
func (m *Machine) advance(mc *pregel.MasterContext, gl *globals) {
	next := gl.Phase + 1
	if next >= len(m.prog.Phases) {
		mc.Stop()
		return
	}
	if len(m.prog.Phases[next].Groups) > 0 {
		*gl = globals{Phase: next, Mode: modePrime}
	} else {
		*gl = globals{Phase: next, Mode: modeBody, Iter: 1}
	}
	mc.ActivateAll()
}
