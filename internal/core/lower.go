package core

import (
	"math"

	"repro/internal/deltav/ast"
	"repro/internal/deltav/types"
)

// Lowering: the last pass turns every resolved body into one flat,
// interface-free program — the "state machine within compute()" of §5. The
// VM executes it and codegen prints it, so the two cannot drift apart.
//
// A lowered body is a tree of Nodes held in one array and linked by index.
// Operators are opcodes, fields and lets are slot numbers, literals and
// constant subexpressions are folded, and every decision that depends only
// on the program is taken here, once:
//
//   - a Δ payload carries a second copy of its aggregand that reads the
//     site's $old slots (Eq. 11's old message), so no field read is
//     redirected at run time;
//   - changed(f) of a float field is the |f − $old| > ε test (§9), at
//     ε = 0 too: for numbers it is f != $old, and a NaN that stays NaN
//     (NaN − NaN is NaN, never above ε) is unchanged; changed(f) of an int
//     or bool field is f != $old;
//   - a send whose payload does not read the edge weight is a broadcast of
//     one message (the Eq. 7 lift); one that does is built per arc;
//   - init{} is preceded by the synthesized fields' defaults (§6.1, §6.3,
//     §6.4.1) and followed by phase 0's full-value prime, which records what
//     receivers now believe (§6.2) and clears the dirty bits.
//
// Every node evaluates to a float64: bools are 0/1, ints integral floats,
// statements 0.

// Ref indexes Lowered.Nodes; NoRef marks an absent operand.
type Ref int32

// NoRef is the absent operand (an if without else, a phase without until).
const NoRef Ref = -1

// Opcode is a lowered node's operation.
type Opcode uint8

// Opcodes. A, B, X, Y, Z and Args are Node fields; "→ 0" marks statements.
const (
	OpConst     Opcode = iota // K
	OpLoad                    // field slot A
	OpStore                   // field slot A = X → 0
	OpStoreUser               // user field slot A = X, noting whether it changed → 0
	OpLetRef                  // let slot A
	OpSetLet                  // let slot A = X → 0
	OpParam                   // parameter A
	OpIter                    // the iteration counter
	OpFixpoint                // the fixpoint aggregator (until{} only)
	OpGraphSize               // |V|
	OpVertexID                // the vertex's id
	OpWeight                  // the weight of the arc a send is building for
	OpDegree                  // |g| for g = ast.GraphDir(A), receiver's perspective

	OpNeg // −X
	OpNot // not X
	OpAdd // X + Y
	OpSub
	OpMul
	OpDiv
	OpLt // X < Y
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAnd // X && Y, short-circuit
	OpOr  // X || Y, short-circuit
	OpMin // min X Y
	OpMax
	OpSame // X and Y have the same bits (a wake guard, see wake.go)

	OpChanged // |field A − field B| > K: changed(f) of a float field under ε = K ≥ 0
	OpIf      // if X then Y else Z (Z may be NoRef: 0)
	OpSeq     // Args in order; the value of the last (0 when empty)
	OpHalt    // vote to halt → 0

	OpRecv        // for each message of group A: X → 0
	OpMsgVal      // the current message's slot A
	OpMsgNull     // the current message's slot A is nullary (§6.4.1)
	OpMsgPrevNull // the current message's slot A was nullary before
	OpTableUpdate // record group A's messages in the lookup tables (§4.2.1) → 0
	OpTableFold   // refold site A's lookup table

	// Sends of group A over push direction ast.GraphDir(B), one payload
	// slot per Args entry, in the group's site order. A slot is an OpDelta,
	// an OpFull, or any value node (always meaningful). The message goes out
	// unless every slot is a no-op.
	OpBroadcast // build one message with weight 1, send it on every arc → 0
	OpSendEach  // build a message per arc, with that arc's weight → 0

	OpDelta // site A's Δ-message (Eq. 11) from new value X and old value Y; a no-op when they are equal
	OpFull  // site A's full value X (§6.1); a no-op when it is ⊞'s identity
)

// Node is one lowered operation.
type Node struct {
	Op      Opcode
	A, B    int32   // immediates: slot, let, parameter, site, group, direction
	X, Y, Z Ref     // operands
	K       float64 // OpConst's value, OpChanged's ε
	Args    []Ref   // OpSeq items, send payload slots
}

// LoweredPhase is one phase's lowered entry points.
type LoweredPhase struct {
	// Body is the transformed statement body.
	Body Ref
	// Prime sends the phase's groups' full values, records them as sent and
	// halts. Phase 0's prime is also the tail of Lowered.Init.
	Prime Ref
	// Until is the loop condition, NoRef for a step or an absent until.
	Until Ref
}

// LoweredSite is a site's slot expression, lowered twice.
type LoweredSite struct {
	// Value reads the current fields; Old reads the site's $old fields — what
	// receivers last heard (equal to Value for sites without $old fields).
	Value, Old Ref
}

// Lowered is a compiled program's executable form.
type Lowered struct {
	Nodes []Node
	// Init runs once per vertex at superstep 0: the synthesized fields'
	// non-zero defaults (fields start at zero), init{}, then phase 0's
	// Prime — or a halt when there are no phases.
	Init Ref
	// InitAdded is what a vertex a delta run adds executes: Init's defaults
	// and init{}, then phase 0's prime bookkeeping without its sends (the
	// repair plan injects the new vertex's arcs instead).
	InitAdded Ref
	Phases    []LoweredPhase
	Sites     []LoweredSite
	// Lets is the number of let slots.
	Lets int
}

// lower builds p.Lowered from the resolved bodies.
func lower(p *Program) *Lowered {
	l := &lowerer{p: p, out: &Lowered{Lets: p.MaxLetDepth}}
	out := l.out
	for _, s := range p.Sites {
		ls := LoweredSite{Value: l.expr(s.SlotExpr)}
		ls.Old = ls.Value
		if s.OldSlots != nil {
			ls.Old = l.old(s, s.SlotExpr)
		}
		out.Sites = append(out.Sites, ls)
	}
	for pi := range p.Phases {
		ph := &p.Phases[pi]
		body := l.expr(ph.Body)
		ph.guards, ph.Wake = quiet(p, out, pi, body)
		ph.Quiet = ph.Wake == ""
		lp := LoweredPhase{Body: body, Prime: l.prime(pi), Until: NoRef}
		if ph.Until != nil {
			lp.Until = l.expr(ph.Until)
		}
		out.Phases = append(out.Phases, lp)
	}
	l.init = true
	prologue := l.defaults()
	prologue = append(prologue, l.expr(p.Init))
	l.init = false
	if len(p.Phases) == 0 {
		out.Init = l.seq(append(prologue, l.add(Node{Op: OpHalt})))
		out.InitAdded = l.seq(prologue)
		return out
	}
	out.Init = l.seq(append(prologue[:len(prologue):len(prologue)], out.Phases[0].Prime))
	added := prologue
	for _, gid := range p.Phases[0].Groups {
		added = append(added, l.record(p.Groups[gid])...)
	}
	out.InitAdded = l.seq(added)
	return out
}

// Uses reports whether the subtree at r contains an op node.
func (l *Lowered) Uses(r Ref, op Opcode) bool {
	if r == NoRef {
		return false
	}
	if l.Nodes[r].Op == op {
		return true
	}
	for _, k := range l.kids(r) {
		if l.Uses(k, op) {
			return true
		}
	}
	return false
}

// walk visits the subtree at r in preorder.
func (l *Lowered) walk(r Ref, visit func(Ref)) {
	if r == NoRef {
		return
	}
	visit(r)
	for _, k := range l.kids(r) {
		l.walk(k, visit)
	}
}

// kids lists the operands of the node at r (NoRef where one is absent).
func (l *Lowered) kids(r Ref) []Ref {
	n := &l.Nodes[r]
	switch {
	case n.Op == OpIf:
		return []Ref{n.X, n.Y, n.Z}
	case n.Op == OpDelta || n.Op >= OpNeg && n.Op <= OpSame:
		return []Ref{n.X, n.Y} // OpNeg and OpNot: Y is NoRef
	case n.Op == OpStore || n.Op == OpStoreUser || n.Op == OpSetLet || n.Op == OpRecv || n.Op == OpFull:
		return []Ref{n.X}
	}
	return n.Args
}

type lowerer struct {
	p   *Program
	out *Lowered
	// redirect maps a site's field slots to its $old slots while lowering
	// the old copy of a Δ payload.
	redirect map[int]int
	// init is set while lowering init{}: its field assignments feed no
	// fixpoint, so they need no change tracking.
	init bool
}

func (l *lowerer) add(n Node) Ref {
	l.out.Nodes = append(l.out.Nodes, n)
	return Ref(len(l.out.Nodes) - 1)
}

func (l *lowerer) konst(v float64) Ref { return l.add(Node{Op: OpConst, K: v}) }

func (l *lowerer) seq(items []Ref) Ref { return l.add(Node{Op: OpSeq, Args: items}) }

func (l *lowerer) node(r Ref) *Node { return &l.out.Nodes[r] }

func (l *lowerer) isConst(r Ref) bool { return l.node(r).Op == OpConst }

// op builds a pure operator node, folding it when every operand is a
// constant.
func (l *lowerer) op(op Opcode, x, y Ref) Ref {
	if l.isConst(x) && (y == NoRef || l.isConst(y)) {
		var b float64
		if y != NoRef {
			b = l.node(y).K
		}
		return l.konst(fold(op, l.node(x).K, b))
	}
	return l.add(Node{Op: op, X: x, Y: y, Z: NoRef})
}

// fold evaluates a pure operator on constants, with the VM's semantics.
func fold(op Opcode, a, b float64) float64 {
	switch op {
	case OpNeg:
		return -a
	case OpNot:
		return b2f(a == 0)
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpLt:
		return b2f(a < b)
	case OpGt:
		return b2f(a > b)
	case OpLe:
		return b2f(a <= b)
	case OpGe:
		return b2f(a >= b)
	case OpEq:
		return b2f(a == b)
	case OpNe:
		return b2f(a != b)
	case OpAnd:
		return b2f(a != 0 && b != 0)
	case OpOr:
		return b2f(a != 0 || b != 0)
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	case OpSame:
		return b2f(math.Float64bits(a) == math.Float64bits(b))
	}
	panic("core: fold of a non-operator opcode")
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// symbols spells the binary operators, as ΔV and Go both write them.
var symbols = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAnd: "&&", OpOr: "||",
}

// Symbol spells a binary operator ("" for every other opcode).
func (op Opcode) Symbol() string {
	if int(op) < len(symbols) {
		return symbols[op]
	}
	return ""
}

func (l *lowerer) expr(e ast.Expr) Ref {
	switch n := e.(type) {
	case *ast.IntLit:
		return l.konst(float64(n.Val))
	case *ast.FloatLit:
		return l.konst(n.Val)
	case *ast.BoolLit:
		return l.konst(b2f(n.Val))
	case *ast.Infty:
		return l.konst(math.Inf(1))
	case *ast.GraphSize:
		return l.add(Node{Op: OpGraphSize})
	case *ast.FixpointRef:
		return l.add(Node{Op: OpFixpoint})
	case *ast.VertexID:
		return l.add(Node{Op: OpVertexID})
	case *ast.EdgeWeight:
		return l.add(Node{Op: OpWeight})
	case *ast.Cardinality:
		return l.add(Node{Op: OpDegree, A: int32(n.G)})
	case *ast.Var:
		switch {
		case n.Slot >= 0:
			return l.add(Node{Op: OpLetRef, A: int32(n.Slot)})
		case n.Slot == IterVarSlot:
			return l.add(Node{Op: OpIter})
		default:
			return l.add(Node{Op: OpParam, A: int32(ParamIndex(n.Slot))})
		}
	case *ast.Field:
		slot := n.Slot
		if o, ok := l.redirect[slot]; ok {
			slot = o
		}
		return l.load(slot)
	case *ast.OldField:
		return l.load(n.Slot)
	case *ast.Changed:
		if l.p.Layout.Fields[n.Slot].Type == types.Float {
			return l.add(Node{Op: OpChanged, A: int32(n.Slot), B: int32(n.OldSlot), K: l.p.Opts.Epsilon})
		}
		return l.op(OpNe, l.load(n.Slot), l.load(n.OldSlot))
	case *ast.Unary:
		if n.Op == "not" {
			return l.op(OpNot, l.expr(n.X), NoRef)
		}
		return l.op(OpNeg, l.expr(n.X), NoRef)
	case *ast.Binary:
		for op, sym := range symbols {
			if sym == n.Op && sym != "" {
				return l.op(Opcode(op), l.expr(n.L), l.expr(n.R))
			}
		}
		panic("core: lower: unknown operator " + n.Op)
	case *ast.MinMax:
		if n.IsMax {
			return l.op(OpMax, l.expr(n.A), l.expr(n.B))
		}
		return l.op(OpMin, l.expr(n.A), l.expr(n.B))
	case *ast.If:
		els := NoRef
		if n.Else != nil {
			els = l.expr(n.Else)
		}
		return l.cond(l.expr(n.Cond), l.expr(n.Then), els)
	case *ast.Let:
		set := l.add(Node{Op: OpSetLet, A: int32(n.Slot), X: l.expr(n.Init)})
		return l.seq([]Ref{set, l.expr(n.Body)})
	case *ast.Local:
		return l.store(OpStore, n.Slot, l.expr(n.Init))
	case *ast.Assign:
		v := l.expr(n.Value)
		switch {
		case !n.IsField:
			return l.add(Node{Op: OpSetLet, A: int32(n.Slot), X: v})
		case l.p.Layout.Fields[n.Slot].Kind == UserField && !l.init:
			return l.store(OpStoreUser, n.Slot, v)
		}
		return l.store(OpStore, n.Slot, v)
	case *ast.Seq:
		items := make([]Ref, len(n.Items))
		for i, it := range n.Items {
			items[i] = l.expr(it)
		}
		return l.seq(items)
	case *ast.ForNeighbors:
		send, ok := n.Body.(*ast.Send)
		if !ok {
			panic("core: lower: a neighbour loop whose body is not a send")
		}
		slots := make([]Ref, len(send.Payload))
		for i, p := range send.Payload {
			if d, isDelta := p.(*ast.Delta); isDelta {
				s := l.p.Sites[d.Site]
				slots[i] = l.add(Node{Op: OpDelta, A: int32(s.ID), X: l.expr(d.X), Y: l.old(s, d.X)})
			} else {
				slots[i] = l.expr(p)
			}
		}
		return l.send(l.p.Groups[send.Group], n.G, slots)
	case *ast.MsgLoop:
		return l.add(Node{Op: OpRecv, A: int32(n.Group), X: l.expr(n.Body)})
	case *ast.MsgSlot:
		return l.add(Node{Op: OpMsgVal, A: int32(l.p.Sites[n.Site].SlotInGroup)})
	case *ast.MsgIsNull:
		return l.add(Node{Op: OpMsgNull, A: int32(l.p.Sites[n.Site].SlotInGroup)})
	case *ast.MsgPrevNull:
		return l.add(Node{Op: OpMsgPrevNull, A: int32(l.p.Sites[n.Site].SlotInGroup)})
	case *ast.TableUpdate:
		return l.add(Node{Op: OpTableUpdate, A: int32(n.Group)})
	case *ast.TableFold:
		return l.add(Node{Op: OpTableFold, A: int32(n.Site)})
	case *ast.Halt:
		return l.add(Node{Op: OpHalt})
	}
	panic("core: lower: unexpected node in a resolved body")
}

// cond builds if c then t else e, selecting the branch when c is constant.
func (l *lowerer) cond(c, t, e Ref) Ref {
	if l.isConst(c) {
		switch {
		case l.node(c).K != 0:
			return t
		case e != NoRef:
			return e
		}
		return l.konst(0)
	}
	return l.add(Node{Op: OpIf, X: c, Y: t, Z: e})
}

func (l *lowerer) load(slot int) Ref { return l.add(Node{Op: OpLoad, A: int32(slot)}) }

func (l *lowerer) store(op Opcode, slot int, v Ref) Ref {
	return l.add(Node{Op: op, A: int32(slot), X: v})
}

// old lowers e as site s's old copy: its user fields read their $old slots.
func (l *lowerer) old(s *AggSite, e ast.Expr) Ref {
	l.redirect = make(map[int]int, len(s.Fields))
	for i, f := range s.Fields {
		l.redirect[f] = s.OldSlots[i]
	}
	r := l.expr(e)
	l.redirect = nil
	return r
}

// send builds a send of group g over push direction dir.
func (l *lowerer) send(g *SendGroup, dir ast.GraphDir, slots []Ref) Ref {
	op := OpBroadcast
	if g.UsesWeight {
		op = OpSendEach
	}
	return l.add(Node{Op: op, A: int32(g.ID), B: int32(dir), Args: slots})
}

// defaults stores the synthesized fields' non-zero initial values: ⊞'s
// identity in accumulators (§6.1), a pre-set dirty bit (§6.3), and 1 as the
// last non-null product contribution, so the first non-null Δ is the raw
// value (§6.4.1).
func (l *lowerer) defaults() []Ref {
	var items []Ref
	for slot, f := range l.p.Layout.Fields {
		var v float64
		switch f.Kind {
		case AccField, NNAccField:
			v = Identity(l.p.Sites[f.Ref].Op)
		case LastNNField, DirtyField:
			v = 1
		}
		if v != 0 {
			items = append(items, l.store(OpStore, slot, l.konst(v)))
		}
	}
	return items
}

// prime is a phase's full-value send (§6.1: "at the first superstep send the
// data from the neighbors' perspective") for every send group, each followed
// by its record, then a halt. Unless the phase is quiet the master wakes
// every vertex for the first body superstep, so halting is always sound; a
// quiet phase halts only the vertices whose wake guards hold (wake.go).
func (l *lowerer) prime(phase int) Ref {
	var items []Ref
	for _, gid := range l.p.Phases[phase].Groups {
		g := l.p.Groups[gid]
		slots := make([]Ref, len(g.Sites))
		for i, sid := range g.Sites {
			v := l.expr(l.p.Sites[sid].SlotExpr)
			if g.Strategy == StrategyTable {
				// A lookup table records every sender, so even an identity
				// value is meaningful.
				slots[i] = v
			} else {
				slots[i] = l.add(Node{Op: OpFull, A: int32(sid), X: v})
			}
		}
		items = append(items, l.send(g, g.PushDir, slots))
		items = append(items, l.record(g)...)
	}
	halt := l.add(Node{Op: OpHalt})
	if ph := &l.p.Phases[phase]; ph.Quiet {
		for i := len(ph.guards) - 1; i >= 0; i-- {
			halt = l.add(Node{Op: OpIf, X: l.guard(ph.guards[i]), Y: halt, Z: NoRef})
		}
	}
	return l.seq(append(items, halt))
}

// guard lowers a wake guard: the field's value is not a NaN, or op(field, k)
// is the field bit for bit.
func (l *lowerer) guard(g guard) Ref {
	f := l.load(int(g.slot))
	if g.op == OpEq {
		return l.op(OpEq, f, l.load(int(g.slot)))
	}
	return l.op(OpSame, l.op(g.op, f, l.konst(g.k)), l.load(int(g.slot)))
}

// record notes, after a group's full-value send (or in place of one, for a
// vertex a delta run adds), what receivers now believe (§6.2): the $old
// copies, the last non-null product contribution, and a clear dirty bit.
func (l *lowerer) record(g *SendGroup) []Ref {
	var items []Ref
	if g.DirtySlot >= 0 {
		items = append(items, l.store(OpStore, g.DirtySlot, l.konst(0)))
	}
	for _, sid := range g.Sites {
		s := l.p.Sites[sid]
		for i, f := range s.Fields {
			if s.OldSlots != nil {
				items = append(items, l.store(OpStore, s.OldSlots[i], l.load(f)))
			}
		}
		if s.LastNNSlot >= 0 {
			nonNull := l.op(OpNe, l.expr(s.SlotExpr), l.konst(0))
			items = append(items, l.cond(nonNull, l.store(OpStore, s.LastNNSlot, l.expr(s.SlotExpr)), NoRef))
		}
	}
	return items
}
