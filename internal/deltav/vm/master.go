package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deltav/ast"
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
		// finished; every vertex must run the first body superstep, since
		// a body execution can differ from the init{} values even without
		// messages.
		*gl = globals{Phase: gl.Phase, Mode: modeBody, Iter: 1}
		mc.ActivateAll()
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
		ph := &m.prog.Phases[gl.Phase]
		m.iterations[gl.Phase]++
		if ph.Kind == core.PhaseStep {
			m.advance(mc, gl)
			return
		}
		fix := mc.AggValue(aggUnchanged) != 0
		if m.untilSatisfied(ph, gl.Iter, fix) {
			m.advance(mc, gl)
			return
		}
		if gl.Iter >= m.prog.Opts.MaxIterations {
			m.failf(mc, "phase %d: iteration limit %d reached", gl.Phase, m.prog.Opts.MaxIterations)
			return
		}
		quiescent := mc.NextActive() == 0 && mc.Step().CombinedMessages == 0
		if quiescent {
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
				if m.untilSatisfied(ph, k, true) {
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

// untilSatisfied evaluates the until condition on the master. The type
// checker admits there only the iteration counter, params, fixpoint,
// graphSize, literals and pure operators — a subset of what the vertex
// evaluator interprets, so the master keeps one aimed at no vertex.
func (m *Machine) untilSatisfied(ph *core.Phase, iter int, fixpoint bool) bool {
	if ph.Until == nil {
		return true
	}
	m.master.iter, m.master.fixpoint = iter, fixpoint
	return m.master.eval(ph.Until) != 0
}

// combiner builds the sender-side combiner for the program, or nil when no
// group is combinable. Each combinable send group (single-strategy,
// non-multiplicative slots, no sender identity) is a class, its messages
// combining slot-wise with their sites' operators; all other messages pass
// through as sent.
func (m *Machine) combiner() pregel.Combiner[Msg] {
	c := &vmCombiner{groups: make([]combineGroup, len(m.prog.Groups))}
	for _, g := range m.prog.Groups {
		cg := &c.groups[g.ID]
		cg.class, cg.slots = -1, len(g.Sites)
		ok := g.Strategy != core.StrategyTable
		for i, s := range m.groupSites[g.ID] {
			cg.ops[i] = s.Op
			ok = ok && !s.Multiplicative() // nullary tags are not mergeable
		}
		if ok {
			cg.class = c.classes
			c.classes++
		}
	}
	if c.classes == 0 {
		return nil
	}
	return c
}

// vmCombiner is indexed by Msg.Group.
type vmCombiner struct {
	groups  []combineGroup
	classes int
}

// combineGroup is one send group's row: its class (negative: not
// combinable) and the operator of each of its slots.
type combineGroup struct {
	class, slots int
	ops          [MaxSlots]ast.AggOp
}

func (c *vmCombiner) Classes() int { return c.classes }

func (c *vmCombiner) Class(msg *Msg) int { return c.groups[msg.Group].class }

// Combine merges m into acc, a message of the same group, slot-wise with
// each slot's ⊞.
func (c *vmCombiner) Combine(acc, m *Msg) {
	g := &c.groups[acc.Group]
	for i := 0; i < g.slots; i++ {
		acc.Vals[i] = core.Apply(g.ops[i], acc.Vals[i], m.Vals[i])
	}
}
