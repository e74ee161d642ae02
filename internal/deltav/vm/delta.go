package vm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// Delta recomputation: instead of rerunning a converged program from
// scratch after an edge mutation, RunDelta warm-starts the engine from the
// previous run's terminal snapshot and repairs the affected accumulators in
// place. The plan is computed before the run starts: for every mutated arc
// the sender retracts its stale contribution and injects the new one using
// the same Δ-message encoding the incremental pipeline already uses (sum:
// signed difference; prod/and/or: §6.4.1 nullary tags; min/max: monotone
// re-injection only), and the body supersteps then propagate the repair
// wave exactly as an ordinary run would propagate any change. A site whose
// slot expression reads a degree (PageRank's rank/#neighbors) is re-sent
// over the sender's whole adjacency, because a topology change shifts its
// contribution on every incident edge. In memo-table mode the repair
// rewrites the per-neighbour tables instead: surviving pairs are re-sent
// (the table update replaces the stale entry), and pairs whose last arc
// disappeared are surgically deleted with the receiver kept active for the
// next refold.
//
// Repairs only reach the accumulators. A body that folds a field with its
// own previous value (SSSP's `dist = min dist d`) memoizes history the
// plan cannot rewrite: the clamp would pin the stale fixpoint even after a
// perfect table repair, so for such programs the planner admits only
// provable tightenings (core.SelfFoldingFields / core.ClampSafe) and
// rejects everything else with a rerun-from-scratch error.

// DeltaRunOptions configure a delta-recomputation run. The machine's graph
// must be the *mutated* graph (the output of graph.ApplyDelta); Snapshot
// and Changes tie it back to the converged pre-mutation run.
type DeltaRunOptions struct {
	RunOptions
	// Snapshot is the terminal (Done, quiescent) snapshot of a converged
	// run of the same compiled program on the pre-mutation graph.
	Snapshot *pregel.Snapshot
	// Changes is the applied mutation diff produced by graph.ApplyDelta;
	// its OldFingerprint must match the snapshot's graph.
	Changes *graph.AppliedDelta
	// SuperstepBudget, when positive, bounds the repair run's body
	// supersteps. A repair wave that has not converged within the budget
	// aborts with an error wrapping ErrRepairBudget — past break-even a
	// from-scratch rerun is cheaper than finishing the repair, and callers
	// (dvserve) use the sentinel to take that fallback.
	SuperstepBudget int
}

// ErrRepairBudget is wrapped by the error a delta run returns when its
// repair wave exceeds DeltaRunOptions.SuperstepBudget before converging.
var ErrRepairBudget = errors.New("repair superstep budget exceeded")

// repairSend is one precomputed repair message.
type repairSend struct {
	dest graph.VertexID
	msg  wideMsg
}

// tableSurgery deletes a memo-table entry whose last arc disappeared.
type tableSurgery struct {
	site   int
	dest   graph.VertexID
	sender graph.VertexID
}

// repairPlan is everything the modeRepair superstep executes.
type repairPlan struct {
	sends      map[graph.VertexID][]repairSend
	keepActive map[graph.VertexID]bool
	surgery    []tableSurgery
	frontier   []graph.VertexID
}

// RunDelta executes a delta-recomputation run to completion; see
// RunDeltaContext.
func RunDelta(prog *core.Program, g *graph.Graph, opts DeltaRunOptions) (*Result, error) {
	return RunDeltaContext(context.Background(), prog, g, opts)
}

// RunDeltaContext warm-starts prog on the mutated graph g from the
// converged snapshot in opts and repairs only the state the delta actually
// disturbed. The result is equivalent to rerunning from scratch on g —
// bitwise identical for idempotent (min/max) programs, and equal up to
// float re-association for sum-based ones — while running strictly fewer
// supersteps and messages when the delta is small.
func RunDeltaContext(ctx context.Context, prog *core.Program, g *graph.Graph, opts DeltaRunOptions) (*Result, error) {
	m, err := NewMachine(prog, g, opts.RunOptions)
	if err != nil {
		return nil, err
	}
	return m.RunDeltaContext(ctx, opts)
}

// RunDeltaContext executes the machine as a delta-recomputation run. It may
// only be called once, like RunContext.
func (m *Machine) RunDeltaContext(ctx context.Context, opts DeltaRunOptions) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("vm: Machine.Run called twice")
	}
	m.ran = true
	if err := m.validateDelta(&opts); err != nil {
		return nil, err
	}
	gl, err := m.restoreExtra(opts.Snapshot.Extra, opts.Snapshot.NumVertices)
	if err != nil {
		return nil, err
	}
	if gl.Mode != modeBody {
		return nil, fmt.Errorf("vm: delta run needs the snapshot of a completed body phase")
	}
	// The repair run reports its own work, not the seed run's.
	for i := range m.iterations {
		m.iterations[i] = 0
	}
	m.nonMonotone.Store(0)
	m.repairBudget = opts.SuperstepBudget
	// Added vertices have no snapshotted state: run their init{} now, and
	// record the primed send state (what phase 0's prime would have recorded)
	// so the planner's injection sends for their arcs evaluate against a
	// coherent baseline. The sends themselves come from the plan — every
	// arc of a new vertex is an ArcAdd in the diff.
	m.initNewVertices(opts.Snapshot.NumVertices)
	plan, err := m.planRepair(opts.Changes)
	if err != nil {
		return nil, err
	}
	for _, sg := range plan.surgery {
		delete(m.tables[sg.site][sg.dest], sg.sender)
	}
	m.repair = plan
	warm := pregel.Warm(opts.Snapshot, plan.frontier, opts.Changes.OldFingerprint, opts.Changes.NewVertices > 0)
	return m.x.execute(ctx, opts.RunOptions, warm, &globals{Phase: gl.Phase, Mode: modeRepair, Iter: 1})
}

// initNewVertices seeds the vertices in [oldN, n) with the lowered
// InitAdded: default field values, the init{} body, and the
// most-recently-sent bookkeeping phase 0's prime records — minus the sends,
// which the repair plan synthesizes from the new vertices' (all-added) arcs
// instead. Delta runs are single-phase, so phase 0 is the snapshot's.
func (m *Machine) initNewVertices(oldN int) {
	for u := oldN; u < m.g.NumVertices(); u++ {
		m.x.initVertex(graph.VertexID(u))
	}
}

// validateDelta rejects the combinations a warm repair cannot handle.
// Every structural decision comes from the program's static RepairProfile —
// the same matrix `dvc vet -analyzers repairability` renders and dvserve
// admits batches with — so the planner and the published matrix can never
// disagree. Only per-value guards (clamp safety of a particular transition,
// zero-crossing product contributions) remain in the planning code below.
func (m *Machine) validateDelta(opts *DeltaRunOptions) error {
	if opts.Snapshot == nil {
		return fmt.Errorf("vm: delta run needs a snapshot")
	}
	if opts.Changes == nil {
		return fmt.Errorf("vm: delta run needs the applied delta")
	}
	rp := m.prog.Repairability()
	if b := rp.Blocked(); b != nil {
		return fmt.Errorf("vm: %s", b.Reason)
	}
	if opts.Changes.NewVertices > 0 {
		// Vertex additions are repairable when the profile says so: the
		// planner runs init{} for the new vertices and injects their arcs.
		// Otherwise wrap ErrSnapshotMismatch so long-lived callers (dvserve,
		// dvrun -warm-start) can detect the case programmatically and fall
		// back to a from-scratch run instead of dying.
		if v := rp.Verdict(core.DeltaVertexAdd); v.Cap != core.Repairable {
			return fmt.Errorf("vm: %w: delta adds %d vertices: %s",
				pregel.ErrSnapshotMismatch, opts.Changes.NewVertices, v.Reason)
		}
		if opts.Snapshot.NumVertices+opts.Changes.NewVertices != m.g.NumVertices() {
			return fmt.Errorf("vm: %w: snapshot covers %d vertices and the delta adds %d, but the graph has %d",
				pregel.ErrSnapshotMismatch, opts.Snapshot.NumVertices, opts.Changes.NewVertices, m.g.NumVertices())
		}
	}
	if opts.Snapshot.Fingerprint != opts.Changes.OldFingerprint {
		return fmt.Errorf("vm: %w: snapshot was taken on graph %016x, the delta was applied to %016x",
			pregel.ErrSnapshotMismatch, opts.Snapshot.Fingerprint, opts.Changes.OldFingerprint)
	}
	// A class the profile rejects for every member is refused before any
	// seed or plan work; value-dependent verdicts fall through to the
	// planner's per-value guards. Reweights are always value-dependent
	// (their class is a direction the plan evaluates per site).
	for _, a := range opts.Changes.Arcs {
		var class core.DeltaClass
		switch a.Kind {
		case graph.ArcAdd:
			class = core.DeltaArcAdd
		case graph.ArcRemove:
			class = core.DeltaArcRemove
		default:
			continue
		}
		if v := rp.Verdict(class); v.Cap != core.Repairable && v.Unconditional {
			return fmt.Errorf("vm: cannot repair %s %d->%d: %s", v.Class, a.U, a.V, v.Reason)
		}
	}
	return nil
}

// pushArc is one sender-perspective arc.
type pushArc struct {
	dest graph.VertexID
	w    float64
}

// planRepair builds the per-vertex repair sends, the memo-table surgery
// list, and the warm-start frontier for the applied delta. It runs after
// restoreExtra, so slot expressions evaluate against the converged state.
func (m *Machine) planRepair(ch *graph.AppliedDelta) (*repairPlan, error) {
	plan := &repairPlan{
		sends:      make(map[graph.VertexID][]repairSend),
		keepActive: make(map[graph.VertexID]bool),
	}
	// Per-vertex degree changes (new minus old), for evaluating
	// pre-mutation contributions against the mutated CSR.
	inDelta := make(map[graph.VertexID]int)
	outDelta := make(map[graph.VertexID]int)
	for _, a := range ch.Arcs {
		switch a.Kind {
		case graph.ArcAdd:
			outDelta[a.U]++
			inDelta[a.V]++
		case graph.ArcRemove:
			outDelta[a.U]--
			inDelta[a.V]--
		}
	}
	clamped := core.SelfFoldingFields(m.prog.Phases[0].Body, m.prog.Layout.UserFields)
	for _, gid := range m.prog.Phases[0].Groups {
		if err := m.planGroup(plan, m.prog.Groups[gid], ch, inDelta, outDelta, clamped); err != nil {
			return nil, err
		}
	}
	// A body that reads a degree (stock PageRank's pr = vl/|#out|) computes
	// different field values once that degree changes, so every vertex with
	// a changed degree must re-run the body even if no repair message wakes
	// it; its own change checks then broadcast the correction.
	bodyIn, bodyOut, _ := core.SlotTopology(m.prog.Phases[0].Body)
	if bodyIn {
		for v, d := range inDelta { //lint:allow maprange — fills the keepActive set; commutative
			if d != 0 {
				plan.keepActive[v] = true
			}
		}
	}
	if bodyOut {
		for v, d := range outDelta { //lint:allow maprange — fills the keepActive set; commutative
			if d != 0 {
				plan.keepActive[v] = true
			}
		}
	}
	// New vertices join the frontier unconditionally: init{} state is not
	// necessarily their fixpoint (the body may compute from accumulators
	// the injections are only now filling), so they run body supersteps
	// until the wave quiesces, like any repaired vertex.
	for u := m.g.NumVertices() - ch.NewVertices; u < m.g.NumVertices(); u++ {
		plan.keepActive[graph.VertexID(u)] = true
	}
	frontier := make([]graph.VertexID, 0, len(plan.sends)+len(plan.keepActive))
	for u := range plan.sends { //lint:allow maprange — frontier sorted below
		frontier = append(frontier, u)
	}
	for u := range plan.keepActive { //lint:allow maprange — frontier sorted below
		if _, dup := plan.sends[u]; !dup {
			frontier = append(frontier, u)
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	plan.frontier = frontier
	return plan, nil
}

// planGroup plans one send group's repair. clamped names the body's
// self-folding fields (empty for pure-function bodies).
func (m *Machine) planGroup(plan *repairPlan, g *core.SendGroup, ch *graph.AppliedDelta, inDelta, outDelta map[graph.VertexID]int, clamped []string) error {
	sites := m.groupSites(g)
	readsIn, readsOut := false, false
	for _, s := range sites {
		ri, ro, _ := core.SlotTopology(s.SlotExpr)
		readsIn = readsIn || ri
		readsOut = readsOut || ro
	}
	// Orient the CSR arc changes into the group's push direction: an arc
	// u→v is pushed by u to v over out-adjacency, and by v to u when the
	// group pushes over in-adjacency.
	perSender := make(map[graph.VertexID]map[graph.VertexID][]graph.ArcChange)
	for _, a := range ch.Arcs {
		s, d := a.U, a.V
		if g.PushDir == ast.DirIn {
			s, d = a.V, a.U
		}
		pd := perSender[s]
		if pd == nil {
			pd = make(map[graph.VertexID][]graph.ArcChange)
			perSender[s] = pd
		}
		pd[d] = append(pd[d], a)
	}
	// A sender whose read degree changed produces a different contribution
	// on every incident edge and must re-send over its whole adjacency.
	resweep := make(map[graph.VertexID]bool)
	if readsIn {
		for v, d := range inDelta { //lint:allow maprange — fills the resweep set; commutative
			if d != 0 {
				resweep[v] = true
			}
		}
	}
	if readsOut {
		for v, d := range outDelta { //lint:allow maprange — fills the resweep set; commutative
			if d != 0 {
				resweep[v] = true
			}
		}
	}
	senders := make([]graph.VertexID, 0, len(perSender)+len(resweep))
	for s := range perSender { //lint:allow maprange — senders sorted below
		senders = append(senders, s)
	}
	for s := range resweep { //lint:allow maprange — senders sorted below
		if _, dup := perSender[s]; !dup {
			senders = append(senders, s)
		}
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

	for _, u := range senders {
		if err := m.checkClampedLoosening(u, sites, perSender[u], resweep[u], clamped); err != nil {
			return err
		}
		cur := m.pushArcs(u, g.PushDir)
		if g.Strategy == core.StrategyTable {
			m.planTableSender(plan, u, g, sites, cur, sortedDests(perSender[u]), resweep[u])
			continue
		}
		var err error
		if resweep[u] {
			err = m.planResweep(plan, u, g, sites, cur, perSender[u], inDelta, outDelta)
		} else {
			err = m.planChangedArcs(plan, u, g, sites, sortedDests(perSender[u]), perSender[u])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pushArcs lists the sender's current push-side arcs in destination order.
func (m *Machine) pushArcs(u graph.VertexID, dir ast.GraphDir) []pushArc {
	var out []pushArc
	it := m.g.OutArcs(u) // DirOut, and DirNeighbors of an undirected graph
	if dir == ast.DirIn {
		it = m.g.InArcs(u)
	}
	for it.Next() {
		out = append(out, pushArc{it.To(), it.Weight()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].dest < out[j].dest })
	return out
}

func sortedDests(pd map[graph.VertexID][]graph.ArcChange) []graph.VertexID {
	dests := make([]graph.VertexID, 0, len(pd))
	for d := range pd { //lint:allow maprange — dests sorted below
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return dests
}

// oldDegrees reconstructs a vertex's pre-mutation degrees from the diff.
func (m *Machine) oldDegrees(u graph.VertexID, inDelta, outDelta map[graph.VertexID]int) *vertexDegrees {
	d := &vertexDegrees{out: m.g.OutDegree(u) - outDelta[u]}
	if m.g.HasReverse() {
		d.in = m.g.InDegree(u) - inDelta[u]
	} else {
		d.in = d.out
	}
	return d
}

// emitRepair builds and records one repair message for an arc whose
// contribution moves from oldArc (nil: the arc did not exist) to newArc
// (nil: the arc no longer exists). oldDeg carries the pre-mutation degrees
// for old-side evaluation; nil means the degrees did not change.
func (m *Machine) emitRepair(plan *repairPlan, u graph.VertexID, g *core.SendGroup, sites []*core.AggSite, dest graph.VertexID, oldArc, newArc *pushArc, oldDeg *vertexDegrees) error {
	if oldDeg == nil {
		oldDeg = &vertexDegrees{in: m.degreeOf(u, true), out: m.degreeOf(u, false)}
	}
	msg := wideMsg{Group: uint8(g.ID), NVals: uint8(len(sites)), Sender: u}
	noop := true
	for i, s := range sites {
		var oldV, newV float64
		if oldArc != nil {
			oldV = m.x.slotValue(s.ID, u, oldArc.w, oldDeg)
		}
		if newArc != nil {
			newV = m.x.slotValue(s.ID, u, newArc.w, nil)
		}
		val, tagNull, tagPrev, slotNoop, err := repairSlot(s, oldV, oldArc != nil, newV, newArc != nil)
		if err != nil {
			return err
		}
		msg.Vals[i] = val
		if tagNull {
			msg.TagNull |= 1 << i
		}
		if tagPrev {
			msg.TagPrev |= 1 << i
		}
		if !slotNoop {
			noop = false
		}
	}
	if !noop {
		plan.sends[u] = append(plan.sends[u], repairSend{dest: dest, msg: msg})
	}
	return nil
}

func (m *Machine) degreeOf(u graph.VertexID, in bool) int {
	if in && m.g.HasReverse() {
		return m.g.InDegree(u)
	}
	return m.g.OutDegree(u)
}

// checkClampedLoosening rejects the transitions a self-folding body would
// mask. A field like SSSP's `dist = min dist d` memoizes its converged
// value outside every repairable accumulator: table surgery can delete a
// removed arc's entry and the refold then yields the corrected aggregate,
// but the body clamps the field to the stale (tighter) value, silently
// pinning a fixpoint no from-scratch run reaches. For clamped programs
// only transitions whose new contribution subsumes the old one — provable
// tightenings — are admitted; everything else reruns from scratch.
func (m *Machine) checkClampedLoosening(u graph.VertexID, sites []*core.AggSite, pd map[graph.VertexID][]graph.ArcChange, resweep bool, clamped []string) error {
	if len(clamped) == 0 {
		return nil
	}
	if resweep {
		return fmt.Errorf("vm: a degree change moves every contribution of vertex %d, and the body folds field %q with its own previous value; the clamp could pin a loosened aggregate — rerun from scratch",
			u, clamped[0])
	}
	for _, dest := range sortedDests(pd) {
		for _, a := range pd[dest] {
			for _, s := range sites {
				var oldV, newV float64
				oldPresent := a.Kind != graph.ArcAdd
				newPresent := a.Kind != graph.ArcRemove
				if oldPresent {
					oldV = m.x.slotValue(s.ID, u, a.OldW, nil)
				}
				if newPresent {
					newV = m.x.slotValue(s.ID, u, a.NewW, nil)
				}
				if !core.ClampSafe(s.Op, oldV, oldPresent, newV, newPresent) {
					return fmt.Errorf("vm: mutated arc %d->%d loosens a %s contribution, and the body folds field %q with its own previous value; the clamp would pin the stale fixpoint — rerun from scratch",
						u, dest, s.Op, clamped[0])
				}
			}
		}
	}
	return nil
}

// planChangedArcs handles a sender whose contributions are
// topology-independent: only the mutated arcs themselves need repair.
func (m *Machine) planChangedArcs(plan *repairPlan, u graph.VertexID, g *core.SendGroup, sites []*core.AggSite, dests []graph.VertexID, pd map[graph.VertexID][]graph.ArcChange) error {
	for _, dest := range dests {
		for _, a := range pd[dest] {
			var err error
			switch a.Kind {
			case graph.ArcAdd:
				err = m.emitRepair(plan, u, g, sites, dest, nil, &pushArc{dest, a.NewW}, nil)
			case graph.ArcRemove:
				err = m.emitRepair(plan, u, g, sites, dest, &pushArc{dest, a.OldW}, nil, nil)
			case graph.ArcReweight:
				if !g.UsesWeight {
					continue // no site reads the weight: nothing changed
				}
				err = m.emitRepair(plan, u, g, sites, dest, &pushArc{dest, a.OldW}, &pushArc{dest, a.NewW}, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// planResweep handles a sender whose read degree changed: every incident
// arc's contribution moved, so the old adjacency is reconstructed from the
// diff and diffed arc-by-arc against the current one.
func (m *Machine) planResweep(plan *repairPlan, u graph.VertexID, g *core.SendGroup, sites []*core.AggSite, cur []pushArc, pd map[graph.VertexID][]graph.ArcChange, inDelta, outDelta map[graph.VertexID]int) error {
	oldDeg := m.oldDegrees(u, inDelta, outDelta)
	old := append([]pushArc(nil), cur...)
	for _, dest := range sortedDests(pd) {
		for _, a := range pd[dest] {
			switch a.Kind {
			case graph.ArcAdd:
				i := findArc(old, dest, a.NewW)
				if i < 0 {
					return fmt.Errorf("vm: repair plan cannot reconcile added arc %d->%d with the mutated graph", u, dest)
				}
				old = append(old[:i], old[i+1:]...)
			case graph.ArcReweight:
				i := findArc(old, dest, a.NewW)
				if i < 0 {
					return fmt.Errorf("vm: repair plan cannot reconcile reweighted arc %d->%d with the mutated graph", u, dest)
				}
				old[i].w = a.OldW
			case graph.ArcRemove:
				old = append(old, pushArc{dest, a.OldW})
			}
		}
	}
	sort.SliceStable(old, func(i, j int) bool { return old[i].dest < old[j].dest })
	// Merge old and current per destination: persisting arcs become
	// old→new transitions, vanished arcs retractions, fresh arcs
	// injections.
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		var err error
		switch {
		case j >= len(cur) || (i < len(old) && old[i].dest < cur[j].dest):
			err = m.emitRepair(plan, u, g, sites, old[i].dest, &old[i], nil, oldDeg)
			i++
		case i >= len(old) || cur[j].dest < old[i].dest:
			err = m.emitRepair(plan, u, g, sites, cur[j].dest, nil, &cur[j], oldDeg)
			j++
		default:
			err = m.emitRepair(plan, u, g, sites, old[i].dest, &old[i], &cur[j], oldDeg)
			i++
			j++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func findArc(arcs []pushArc, dest graph.VertexID, w float64) int {
	for i, a := range arcs {
		if a.dest == dest && math.Float64bits(a.w) == math.Float64bits(w) {
			return i
		}
	}
	return -1
}

// planTableSender repairs the §4.2.1 per-neighbour tables: stale pairs are
// re-sent over every surviving arc (the receiver's table update replaces
// the entry, merging parallel arcs with ⊞), and pairs whose last arc
// disappeared are queued for direct surgery with the receiver kept active
// so its next refold sees the deletion.
func (m *Machine) planTableSender(plan *repairPlan, u graph.VertexID, g *core.SendGroup, sites []*core.AggSite, cur []pushArc, changedDests []graph.VertexID, resweep bool) {
	emitFull := func(a pushArc) {
		msg := wideMsg{Group: uint8(g.ID), NVals: uint8(len(sites)), Sender: u}
		for i, s := range sites {
			msg.Vals[i] = m.x.slotValue(s.ID, u, a.w, nil)
		}
		plan.sends[u] = append(plan.sends[u], repairSend{dest: a.dest, msg: msg})
	}
	surgery := func(dest graph.VertexID) {
		for _, sid := range g.Sites {
			plan.surgery = append(plan.surgery, tableSurgery{site: sid, dest: dest, sender: u})
		}
		plan.keepActive[dest] = true
	}
	if resweep {
		for _, a := range cur {
			emitFull(a)
		}
		for _, dest := range changedDests {
			if countArcs(cur, dest) == 0 {
				surgery(dest)
			}
		}
		return
	}
	for _, dest := range changedDests {
		n := 0
		for _, a := range cur {
			if a.dest == dest {
				emitFull(a)
				n++
			}
		}
		if n == 0 {
			surgery(dest)
		}
	}
}

func countArcs(arcs []pushArc, dest graph.VertexID) int {
	n := 0
	for _, a := range arcs {
		if a.dest == dest {
			n++
		}
	}
	return n
}

// repairSlot synthesizes the Δ-message slot that moves a memoized
// accumulator from an arc's old contribution to its new one, reusing the
// Δ-message encodings of Eq. 11 and §6.4.1. Absent contributions (the arc
// did not or will no longer exist) are passed with present=false.
func repairSlot(s *core.AggSite, oldV float64, oldPresent bool, newV float64, newPresent bool) (val float64, tagNull, tagPrev, noop bool, err error) {
	switch s.Op {
	case ast.AggSum:
		var o, n float64
		if oldPresent {
			o = oldV
		}
		if newPresent {
			n = newV
		}
		if o == n {
			return 0, false, false, true, nil
		}
		return n - o, false, false, false, nil
	case ast.AggMin, ast.AggMax:
		id := core.Identity(s.Op)
		if !oldPresent {
			// Injection: folding a fresh value into an idempotent
			// accumulator is always exact.
			return newV, false, false, newV == id, nil
		}
		if newPresent {
			if newV == oldV {
				return id, false, false, true, nil
			}
			if (s.Op == ast.AggMin && newV < oldV) || (s.Op == ast.AggMax && newV > oldV) {
				// A tightening transition subsumes the old value.
				return newV, false, false, false, nil
			}
		}
		if oldV == id {
			// The old contribution was the identity; dropping it is free.
			if !newPresent {
				return id, false, false, true, nil
			}
			return newV, false, false, false, nil
		}
		return 0, false, false, false, fmt.Errorf(
			"vm: cannot retract a %s contribution from a memoized accumulator (mutation loosens a folded-in value); use mode %s or rerun from scratch",
			s.Op, core.MemoTable)
	case ast.AggProd:
		o, n := 1.0, 1.0
		if oldPresent {
			o = oldV
		}
		if newPresent {
			n = newV
		}
		if o == n {
			return 1, false, false, true, nil
		}
		if o == 0 || n == 0 {
			// Zero crossings need the sender-global $lastnn protocol, which
			// a per-arc repair cannot participate in.
			return 0, false, false, false, fmt.Errorf("vm: cannot repair a nullary (zero) product contribution in place; rerun from scratch")
		}
		return n / o, false, false, false, nil
	case ast.AggOr, ast.AggAnd:
		abs, _ := core.Absorbing(s.Op)
		id := core.Identity(s.Op)
		o, n := id, id
		if oldPresent {
			o = oldV
		}
		if newPresent {
			n = newV
		}
		if o == n {
			return id, false, false, true, nil
		}
		if n == abs {
			return n, true, false, false, nil // gained an absorbing value
		}
		return id, false, true, false, nil // lost an absorbing value
	}
	return 0, false, false, false, fmt.Errorf("vm: repair for unknown operator %s", s.Op)
}
