package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Wake-freedom: the phase-start wake P6 leaves open (§6.6, Eq. 12).
//
// A phase's prime halts every vertex, and the master then used to wake all
// of them for the first body superstep, because a body run can change state
// even without messages (PageRank's vl = 0.15 + 0.85·Σ/|V| does). quiet
// proves, per phase, that it cannot: run on the state the prime leaves at
// its barrier and with no messages, the lowered body sends nothing, halts,
// stores every user field's own value back (so it reports no change), and
// leaves every slot — user fields, $old copies, dirty bits, accumulators —
// as it found it. For such a phase the master skips the wake: only the
// vertices the prime's messages reach run the first body superstep, as in
// the handwritten Pregel+ program.
//
// The proof evaluates the body over abstract values: a constant, a slot's
// value at the barrier, or unknown. At the barrier the phase's dirty bits
// are 0, its $old copies equal their fields (the prime just recorded them),
// and its accumulators hold ⊞'s identity (only the phase's own receive
// loops move them, and its lookup tables are still empty). A receive loop
// without messages does nothing, so the typical body reduces to
// f = min f +∞, dirty = f != $old = 0 and a skipped send.
//
// Some of those identities hold for almost every value, not all: min f +∞
// is f unless f is a NaN (math.Min returns its own NaN), f != f is false
// unless f is a NaN, f || false is f only if f is 0 or 1 (not −0). Each such
// step adds a guard, a per-vertex test of the barrier value, and the prime
// halts only a vertex whose guards all hold (lower.go). A vertex that fails
// one stays awake and runs the first body superstep as it always did.
//
// Only idempotent self-updates (min, max, ||, &&) can pass: P6 adds no halt
// to a body with f = f + acc, and a phase without one is never quiet.
//
// The same evaluator proves a run's start (Start).

// guard is one per-vertex condition the proof relies on: field slot's
// barrier value is not a NaN (op == OpEq), or op(slot, k) is that value bit
// for bit.
type guard struct {
	op   Opcode
	slot int32
	k    float64
}

// absKind is the kind of an abstract value.
type absKind uint8

const (
	absUnknown absKind = iota
	absConst           // k
	absSlot            // slot's value at the prime barrier
)

// abs is an abstract value. An unknown carries the read it came from, for
// the diagnostic that names what blocks the proof.
type abs struct {
	kind absKind
	k    float64
	slot int32
	why  string
}

func (a abs) same(b abs) bool {
	switch {
	case a.kind != b.kind:
		return false
	case a.kind == absConst:
		return math.Float64bits(a.k) == math.Float64bits(b.k)
	case a.kind == absSlot:
		return a.slot == b.slot
	}
	return false // two unknowns may differ
}

// truth is a constant's truth value as a bool.
func (a abs) truth() abs { return abs{kind: absConst, k: b2f(a.k != 0)} }

// absState is what a body run has done so far.
type absState struct {
	slots, lets []abs
	halted      bool // the run voted to halt
}

func (s absState) clone() absState {
	return absState{append([]abs(nil), s.slots...), append([]abs(nil), s.lets...), s.halted}
}

// join merges the state after either branch of a condition that may go
// either way; why names the condition.
func (s *absState) join(o absState, why string) {
	for i := range s.slots {
		if !s.slots[i].same(o.slots[i]) {
			s.slots[i] = abs{why: why}
		}
	}
	for i := range s.lets {
		if !s.lets[i].same(o.lets[i]) {
			s.lets[i] = abs{why: why}
		}
	}
	s.halted = s.halted && o.halted
}

// prover runs the proof over one phase's lowered body, or with start set
// over Lowered.Init.
type prover struct {
	p      *Program
	code   *Lowered
	phase  int
	st     absState
	guards []guard
	block  string // the first reason the proof fails
	// The start proof's findings (Start's Keys and Finite).
	start  bool
	keys   []Ref
	finite bool
}

// newProver starts a proof over code with each slot s at at(s) and no let
// set.
func newProver(p *Program, code *Lowered, at func(s int32) abs) *prover {
	pr := &prover{p: p, code: code, st: absState{slots: make([]abs, len(p.Layout.Fields)), lets: make([]abs, code.Lets)}}
	for s := range pr.st.slots {
		pr.st.slots[s] = at(int32(s))
	}
	for i := range pr.st.lets {
		pr.st.lets[i] = abs{why: "an unset let"}
	}
	return pr
}

// quiet proves phase pi wake-free; it returns the guards the proof needs,
// or a description of what blocks it.
func quiet(p *Program, code *Lowered, pi int, body Ref) ([]guard, string) {
	ph := &p.Phases[pi]
	if !ph.Halts {
		return nil, "the body does not halt"
	}
	pr := newProver(p, code, func(s int32) abs { return abs{kind: absSlot, slot: s} })
	pr.phase = pi
	for _, gid := range ph.Groups {
		g := p.Groups[gid]
		if g.DirtySlot >= 0 {
			pr.st.slots[g.DirtySlot] = abs{kind: absConst}
		}
		for _, sid := range g.Sites {
			s := p.Sites[sid]
			for i, f := range s.Fields {
				if s.OldSlots != nil {
					pr.st.slots[s.OldSlots[i]] = abs{kind: absSlot, slot: int32(f)}
				}
			}
			id := abs{kind: absConst, k: Identity(s.Op)}
			for _, slot := range []int{s.AccSlot, s.NNSlot} {
				if slot >= 0 {
					pr.st.slots[slot] = id
				}
			}
			if s.NullsSlot >= 0 {
				pr.st.slots[s.NullsSlot] = abs{kind: absConst}
			}
		}
	}
	start := pr.st.clone()
	pr.eval(body)
	if pr.block != "" {
		return nil, pr.block
	}
	for s, v := range pr.st.slots {
		if !v.same(start.slots[s]) {
			return nil, pr.describe(int32(s), v)
		}
	}
	return pr.guards, ""
}

// describe says how slot s ends up differing from its barrier value.
func (pr *prover) describe(s int32, v abs) string {
	name := pr.p.Layout.Fields[s].Name
	switch v.kind {
	case absConst:
		return fmt.Sprintf("%s becomes %v", name, v.k)
	case absSlot:
		return fmt.Sprintf("%s becomes %s", name, pr.p.Layout.Fields[v.slot].Name)
	}
	return fmt.Sprintf("%s depends on %s", name, v.why)
}

func (pr *prover) fail(format string, args ...any) abs {
	if pr.block == "" {
		pr.block = fmt.Sprintf(format, args...)
	}
	return abs{why: "a failed proof"}
}

func (pr *prover) need(g guard) {
	for _, h := range pr.guards {
		if h.op == g.op && h.slot == g.slot && math.Float64bits(h.k) == math.Float64bits(g.k) {
			return
		}
	}
	pr.guards = append(pr.guards, g)
}

// unknown is the value of an operation on x and y the proof cannot follow.
func (pr *prover) unknown(x, y abs) abs {
	switch {
	case x.kind == absUnknown:
		return x
	case y.kind == absUnknown:
		return y
	case x.kind == absConst:
		x = y
	}
	return abs{why: "a value computed from " + pr.p.Layout.Fields[x.slot].Name}
}

// reason names what a condition that may go either way reads.
func (pr *prover) reason(c abs) string {
	if c.kind == absSlot {
		return "a test of " + pr.p.Layout.Fields[c.slot].Name
	}
	return c.why
}

// branches evaluates the arms of a condition that may go either way from
// the current state and joins them; it returns the value both agree on.
func (pr *prover) branches(c abs, then, els func() abs) abs {
	before := pr.st.clone()
	a := then()
	after := pr.st
	pr.st = before
	b := els()
	pr.st.join(after, pr.reason(c))
	if a.same(b) {
		return a
	}
	return abs{why: pr.reason(c)}
}

func (pr *prover) eval(r Ref) abs {
	if r == NoRef || pr.block != "" {
		return abs{kind: absConst}
	}
	n := &pr.code.Nodes[r]
	zero := abs{kind: absConst}
	switch n.Op {
	case OpConst:
		return abs{kind: absConst, k: n.K}
	case OpLoad:
		return pr.st.slots[n.A]
	case OpStore:
		pr.st.slots[n.A] = pr.eval(n.X)
	case OpStoreUser:
		// The body reports a change unless it stores the value the field
		// holds, and a NaN compares unequal to itself.
		v, cur := pr.eval(n.X), pr.st.slots[n.A]
		switch {
		case !v.same(cur):
			return pr.fail("%s", pr.describe(n.A, v))
		case v.kind == absSlot:
			pr.need(guard{op: OpEq, slot: v.slot})
		case v.k != v.k:
			return pr.fail("%s is NaN", pr.p.Layout.Fields[n.A].Name)
		}
	case OpLetRef:
		return pr.st.lets[n.A]
	case OpSetLet:
		pr.st.lets[n.A] = pr.eval(n.X)
	case OpParam:
		return abs{why: "the parameter " + pr.p.Params[n.A].Name}
	case OpIter:
		return abs{why: "the iteration variable " + pr.p.Phases[pr.phase].IterVar}
	case OpFixpoint:
		return abs{why: "fixpoint"}
	case OpGraphSize:
		return abs{why: "|V|"}
	case OpVertexID:
		return abs{why: "the vertex id"}
	case OpWeight:
		return abs{why: "the arc weight"}
	case OpDegree:
		return abs{why: "a degree"}
	case OpNeg, OpNot:
		if x := pr.eval(n.X); x.kind != absConst {
			return pr.unknown(x, x)
		} else {
			return abs{kind: absConst, k: fold(n.Op, x.k, 0)}
		}
	case OpAnd, OpOr:
		return pr.logic(n)
	case OpEq, OpNe:
		if v, ok := pr.idTest(n); ok {
			return v
		}
		return pr.binary(n.Op, pr.eval(n.X), pr.eval(n.Y))
	case OpAdd, OpSub, OpMul, OpDiv, OpLt, OpGt, OpLe, OpGe, OpMin, OpMax, OpSame:
		return pr.binary(n.Op, pr.eval(n.X), pr.eval(n.Y))
	case OpChanged:
		// |f − $old| > ε is false when both hold the same value: 0, or
		// NaN for a NaN or infinite one, is never above ε ≥ 0.
		if pr.st.slots[n.A].same(pr.st.slots[n.B]) && pr.st.slots[n.A].kind != absUnknown {
			return zero
		}
		return pr.unknown(pr.st.slots[n.A], pr.st.slots[n.B])
	case OpIf:
		c := pr.eval(n.X)
		if c.kind == absConst {
			if c.k != 0 {
				return pr.eval(n.Y)
			}
			return pr.eval(n.Z)
		}
		return pr.branches(c, func() abs { return pr.eval(n.Y) }, func() abs { return pr.eval(n.Z) })
	case OpSeq:
		v := zero
		for _, it := range n.Args {
			v = pr.eval(it)
		}
		return v
	case OpHalt:
		pr.st.halted = true // P6's halt ends every body of a phase that Halts
	case OpRecv, OpTableUpdate:
		// Without messages a receive loop's body never runs.
	case OpTableFold:
		return abs{kind: absConst, k: Identity(pr.p.Sites[n.A].Op)}
	case OpBroadcast, OpSendEach:
		if pr.start {
			return pr.deadSend(n)
		}
		return pr.fail("it may send group %d", n.A)
	default:
		return pr.fail("it reaches opcode %d", n.Op)
	}
	return zero
}

// logic evaluates a short-circuit && or ||.
func (pr *prover) logic(n *Node) abs {
	x := pr.eval(n.X)
	if x.kind == absConst {
		if (x.k != 0) == (n.Op == OpOr) {
			return abs{kind: absConst, k: b2f(n.Op == OpOr)}
		}
		// The result is y's truth: y itself when y is a bool slot.
		return pr.binary(n.Op, pr.eval(n.Y), abs{kind: absConst, k: b2f(n.Op == OpAnd)})
	}
	// y is an expression: it stores nothing, whether it runs or not.
	return pr.binary(n.Op, x, pr.eval(n.Y))
}

// binary evaluates a pure two-operand operator: folded on constants, the
// field itself when the other operand is the operator's identity, and a
// constant for a field compared with itself.
func (pr *prover) binary(op Opcode, x, y abs) abs {
	if x.kind == absConst && y.kind == absConst {
		return abs{kind: absConst, k: fold(op, x.k, y.k)}
	}
	if x.kind == absSlot && y.kind == absSlot && x.slot == y.slot {
		switch op {
		case OpEq, OpLe, OpGe, OpLt, OpGt, OpNe:
			pr.need(guard{op: OpEq, slot: x.slot})
			return abs{kind: absConst, k: fold(op, 0, 0)}
		case OpMin, OpMax:
			pr.need(guard{op: OpEq, slot: x.slot})
			return x
		}
	}
	if x.kind == absConst && y.kind == absSlot {
		x, y = y, x
	}
	if y.kind == absConst && (op == OpOr && y.k != 0 || op == OpAnd && y.k == 0) {
		return y.truth() // || true, && false
	}
	if x.kind == absSlot && y.kind == absConst && identityOf(op, y.k) {
		if op == OpMin || op == OpMax {
			pr.need(guard{op: OpEq, slot: x.slot})
		} else {
			pr.need(guard{op: op, slot: x.slot, k: y.k})
		}
		return x
	}
	return pr.unknown(x, y)
}

// identityOf reports whether k is op's identity for almost every value:
// x op k is x except where a guard says otherwise.
func identityOf(op Opcode, k float64) bool {
	switch op {
	case OpOr:
		return k == 0
	case OpAnd:
		return k == 1
	case OpMin:
		return math.IsInf(k, 1)
	case OpMax:
		return math.IsInf(k, -1)
	}
	return false
}

// guardString renders a guard as the condition a vertex must meet to halt.
func (l *Layout) guardString(g guard) string {
	f := l.Fields[g.slot].Name
	if g.op == OpEq {
		return f + " == " + f
	}
	return fmt.Sprintf("same(%s %s %v, %s)", f, g.op.Symbol(), g.k, f)
}

// WakeString describes phase pi's first body superstep: whether it wakes
// every vertex and, when it does, what blocks the proof that it need not.
func (p *Program) WakeString(pi int) string {
	ph := &p.Phases[pi]
	if !ph.Quiet {
		return "wakes every vertex: " + ph.Wake
	}
	if len(ph.guards) == 0 {
		return "wakes only the vertices the prime's messages reach"
	}
	conds := make([]string, len(ph.guards))
	for i, g := range ph.guards {
		conds[i] = p.Layout.guardString(g)
	}
	return "wakes only the vertices the prime's messages reach; the prime halts a vertex only if " + strings.Join(conds, " && ")
}

// Start is the start proof's verdict on Lowered.Init: Row is the state init
// leaves every vertex whose id equals none of Keys (the OpParam and OpConst
// nodes init compares the id with by == or !=), which also ends superstep
// 0 halted, having sent nothing; Finite, that Row holds only while every
// arc weight is finite (a per-arc prime dead by ArcSum.Dead). Row is nil
// when the proof fails, and Why says what blocks it.
type Start struct {
	Row    []float64
	Why    string
	Keys   []Ref
	Finite bool
}

// startProof proves Lowered.Init for the vertices whose id matches no key.
func startProof(p *Program, code *Lowered) Start {
	pr := newProver(p, code, func(int32) abs { return abs{kind: absConst} }) // fields start at zero
	pr.start = true
	pr.eval(code.Init)
	if !pr.st.halted {
		pr.fail("a vertex may stay awake")
	}
	row := make([]float64, len(pr.st.slots))
	for s, v := range pr.st.slots {
		if v.kind != absConst {
			pr.fail("%s", pr.describe(int32(s), v))
		}
		row[s] = v.k
	}
	if pr.block != "" {
		return Start{Why: pr.block}
	}
	return Start{Row: row, Keys: pr.keys, Finite: pr.finite}
}

// idTest folds, in the start proof, id == k and id != k for k a parameter
// or a constant to their value for an id other than k, and records k as a
// key. ok is false for any other node.
func (pr *prover) idTest(n *Node) (v abs, ok bool) {
	nodes := pr.code.Nodes
	x, k := n.X, n.Y
	if nodes[k].Op == OpVertexID {
		x, k = k, x
	}
	if !pr.start || nodes[x].Op != OpVertexID || nodes[k].Op != OpParam && nodes[k].Op != OpConst {
		return abs{}, false
	}
	if !slices.ContainsFunc(pr.keys, func(r Ref) bool {
		return nodes[r].Op == nodes[k].Op && nodes[r].A == nodes[k].A && nodes[r].K == nodes[k].K
	}) {
		pr.keys = append(pr.keys, k)
	}
	return abs{kind: absConst, k: b2f(n.Op == OpNe)}, true
}

// deadSend proves, in the start proof, that a prime's send at n sends
// nothing: each slot is a full value that is ⊞'s identity, as the VM's full
// slot tests it (a multiplicative site's absorbing element, which goes out
// as a nullary tag, is never the identity), or a full x ± w dead on every
// arc of finite weight.
func (pr *prover) deadSend(n *Node) abs {
	for _, r := range n.Args {
		slot := &pr.code.Nodes[r]
		if slot.Op != OpFull {
			return pr.fail("the prime sends group %d: a lookup table records every value", n.A)
		}
		s := pr.p.Sites[slot.A]
		x := slot.X
		arc, perArc := pr.code.ArcSum(x)
		if perArc {
			x = arc.X // the weight-free operand, once for every arc
		}
		switch v := pr.eval(x); {
		case perArc && v.kind == absConst && arc.Dead(v.k, Identity(s.Op)):
			pr.finite = true
		case v.kind != absConst:
			return pr.fail("the prime may send group %d: its value depends on %s", n.A, v.why)
		case perArc || v.k != Identity(s.Op):
			return pr.fail("the prime sends group %d: %s is not %s's identity", n.A, num(v.k), s.Op)
		}
	}
	return abs{kind: absConst}
}

// StartString describes superstep 0: the vertices that run init and the
// state every other one starts in, or what blocks the proof.
func (p *Program) StartString() string {
	st := &p.Start
	if st.Row == nil {
		return "every vertex runs init: " + st.Why
	}
	var tests, vals []string
	for _, r := range st.Keys {
		k := p.Lowered.Nodes[r]
		name := num(k.K)
		if k.Op == OpParam {
			name = p.Params[k.A].Name
		}
		tests = append(tests, "id == "+name)
	}
	who := "every vertex"
	if len(tests) > 0 {
		who = strings.Join(tests, " or ") + " runs init; every other vertex"
	}
	for s, v := range st.Row {
		vals = append(vals, p.Layout.Fields[s].Name+" = "+num(v))
	}
	out := who + " starts halted at " + strings.Join(vals, ", ")
	if st.Finite {
		out += " (while every weight is finite)"
	}
	return out
}

// num spells a value as dvc prints it, ∞ for +Inf.
func num(v float64) string {
	return strings.NewReplacer("+Inf", "∞", "-Inf", "-∞").Replace(strconv.FormatFloat(v, 'g', -1, 64))
}
