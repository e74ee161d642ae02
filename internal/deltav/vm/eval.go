package vm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/deltav/types"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// evaluator interprets resolved ΔV expressions for one vertex during one
// superstep. All values are float64-encoded: bools are 0/1 and ints are
// integral floats (exact up to 2^53). A run keeps one evaluator per engine
// worker and re-aims it at each vertex (Machine.vertexEvaluator), so a
// vertex call allocates nothing.
type evaluator struct {
	m    *Machine
	ctx  *pregel.Context[VState, Msg]
	u    graph.VertexID
	base int

	lets []float64
	msgs []Msg
	cur  *Msg
	iter int
	// fixpoint is what FixpointRef reads; only the master's until{}
	// evaluation sets it.
	fixpoint bool

	curWeight float64
	curDest   graph.VertexID

	// redirect, when non-nil, is a row of Machine.redirects: it remaps
	// field slots during evaluation, to recompute a slot expression against
	// the $old fields for Δ synthesis (Eq. 11).
	redirect []int

	// degOverride, when non-nil, substitutes the vertex's degrees during
	// Cardinality evaluation. The repair planner uses it to evaluate
	// pre-mutation contributions against the mutated graph's CSR.
	degOverride *vertexDegrees

	// foldKeys is tableFold's reusable sender-sort scratch.
	foldKeys []graph.VertexID

	changed bool
}

// vertexDegrees is an explicit degree pair for degOverride.
type vertexDegrees struct {
	in, out int
}

func (ev *evaluator) field(slot int) float64 {
	if ev.redirect != nil {
		slot = ev.redirect[slot]
	}
	return ev.m.state[ev.base+slot]
}

// eval evaluates e and returns its float64-encoded value (0 for
// unit-typed statements).
func (ev *evaluator) eval(e ast.Expr) float64 {
	switch n := e.(type) {
	case *ast.IntLit:
		return float64(n.Val)
	case *ast.FloatLit:
		return n.Val
	case *ast.BoolLit:
		return boolTo01(n.Val)
	case *ast.Infty:
		return math.Inf(1)
	case *ast.GraphSize:
		return float64(ev.m.g.NumVertices())
	case *ast.FixpointRef:
		return boolTo01(ev.fixpoint)
	case *ast.VertexID:
		return float64(ev.u)
	case *ast.EdgeWeight:
		return ev.curWeight
	case *ast.Var:
		switch {
		case n.Slot >= 0:
			return ev.lets[n.Slot]
		case n.Slot == core.IterVarSlot:
			return float64(ev.iter)
		default:
			return ev.m.params[core.ParamIndex(n.Slot)]
		}
	case *ast.Field:
		return ev.field(n.Slot)
	case *ast.OldField:
		return ev.m.state[ev.base+n.Slot]
	case *ast.Changed:
		cur := ev.m.state[ev.base+n.Slot]
		old := ev.m.state[ev.base+n.OldSlot]
		eps := ev.m.prog.Opts.Epsilon
		if eps > 0 && ev.m.prog.Layout.Fields[n.Slot].Type == types.Float {
			return boolTo01(math.Abs(cur-old) > eps)
		}
		return boolTo01(cur != old)
	case *ast.Unary:
		if n.Op == "not" {
			return boolTo01(ev.eval(n.X) == 0)
		}
		return -ev.eval(n.X)
	case *ast.Binary:
		switch n.Op {
		case "&&":
			if ev.eval(n.L) == 0 {
				return 0
			}
			return boolTo01(ev.eval(n.R) != 0)
		case "||":
			if ev.eval(n.L) != 0 {
				return 1
			}
			return boolTo01(ev.eval(n.R) != 0)
		}
		l, r := ev.eval(n.L), ev.eval(n.R)
		switch n.Op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			return l / r
		case "<":
			return boolTo01(l < r)
		case ">":
			return boolTo01(l > r)
		case "<=":
			return boolTo01(l <= r)
		case ">=":
			return boolTo01(l >= r)
		case "==":
			return boolTo01(l == r)
		case "!=":
			return boolTo01(l != r)
		}
		panic(fmt.Sprintf("vm: unknown operator %q", n.Op))
	case *ast.MinMax:
		a, b := ev.eval(n.A), ev.eval(n.B)
		if n.IsMax {
			return math.Max(a, b)
		}
		return math.Min(a, b)
	case *ast.If:
		if ev.eval(n.Cond) != 0 {
			return ev.eval(n.Then)
		}
		if n.Else != nil {
			return ev.eval(n.Else)
		}
		return 0
	case *ast.Let:
		ev.lets[n.Slot] = ev.eval(n.Init)
		return ev.eval(n.Body)
	case *ast.Local:
		ev.m.state[ev.base+n.Slot] = ev.eval(n.Init)
		return 0
	case *ast.Assign:
		v := ev.eval(n.Value)
		if !n.IsField {
			ev.lets[n.Slot] = v
			return 0
		}
		idx := ev.base + n.Slot
		if ev.m.prog.Layout.Fields[n.Slot].Kind == core.UserField && ev.m.state[idx] != v {
			ev.changed = true
		}
		ev.m.state[idx] = v
		return 0
	case *ast.Seq:
		var v float64
		for _, it := range n.Items {
			v = ev.eval(it)
		}
		return v
	case *ast.Cardinality:
		return float64(ev.degree(n.G))
	case *ast.ForNeighbors:
		// Broadcast fast path (the runtime side of the Eq. 7 lift): when
		// the loop body is a send whose payload does not read the edge
		// weight, the message is identical on every edge — build it once.
		it := ev.pushIter(n.G)
		if send, ok := n.Body.(*ast.Send); ok && !ev.m.groupWeighted[send.Group] {
			ev.curWeight = 1
			if msg, sendIt := ev.buildMsg(send); sendIt {
				for it.Next() {
					ev.ctx.Send(it.To(), msg)
				}
			}
			return 0
		}
		for it.Next() {
			ev.curDest, ev.curWeight = it.To(), it.Weight()
			ev.eval(n.Body)
		}
		return 0
	case *ast.Send: // one message for the current edge, set by the enclosing ForNeighbors
		if msg, sendIt := ev.buildMsg(n); sendIt {
			ev.ctx.Send(ev.curDest, msg)
		}
		return 0
	case *ast.MsgLoop:
		for i := range ev.msgs {
			if int(ev.msgs[i].Group) != n.Group {
				continue
			}
			ev.cur = &ev.msgs[i]
			ev.eval(n.Body)
		}
		ev.cur = nil
		return 0
	case *ast.MsgSlot:
		return ev.cur.Vals[ev.m.prog.Sites[n.Site].SlotInGroup]
	case *ast.MsgIsNull:
		return boolTo01(ev.cur.TagNull&(1<<ev.m.prog.Sites[n.Site].SlotInGroup) != 0)
	case *ast.MsgPrevNull:
		return boolTo01(ev.cur.TagPrev&(1<<ev.m.prog.Sites[n.Site].SlotInGroup) != 0)
	case *ast.TableUpdate:
		ev.tableUpdate(n.Group)
		return 0
	case *ast.TableFold:
		return ev.tableFold(n.Site)
	case *ast.Halt:
		ev.ctx.VoteToHalt()
		return 0
	case *ast.Delta:
		panic("vm: Delta outside a send payload")
	}
	panic(fmt.Sprintf("vm: eval missing case for %T", e))
}

// degree is the receiver-perspective count |g|.
func (ev *evaluator) degree(g ast.GraphDir) int {
	if d := ev.degOverride; d != nil {
		if g == ast.DirIn {
			return d.in
		}
		return d.out
	}
	switch g {
	case ast.DirIn:
		return ev.m.g.InDegree(ev.u)
	case ast.DirOut:
		return ev.m.g.OutDegree(ev.u)
	default:
		return ev.m.g.OutDegree(ev.u) // undirected: neighbours
	}
}

// pushIter is a cursor over the sender-perspective arcs of a push
// direction.
func (ev *evaluator) pushIter(dir ast.GraphDir) graph.ArcIter {
	if dir == ast.DirIn {
		return ev.m.g.InArcs(ev.u)
	}
	return ev.m.g.OutArcs(ev.u) // DirOut and DirNeighbors
}

// buildMsg assembles a message from a Send node's payload; the second
// result is false when every slot is a no-op Δ (the message would not be
// meaningful).
func (ev *evaluator) buildMsg(n *ast.Send) (Msg, bool) {
	g := ev.m.prog.Groups[n.Group]
	msg := Msg{Group: uint8(g.ID), NVals: uint8(len(n.Payload)), Sender: ev.u}
	noop := true
	for i, p := range n.Payload {
		if d, ok := p.(*ast.Delta); ok {
			val, isNull, prevNull, slotNoop := ev.delta(d)
			msg.Vals[i] = val
			if isNull {
				msg.TagNull |= 1 << i
			}
			if prevNull {
				msg.TagPrev |= 1 << i
			}
			if !slotNoop {
				noop = false
			}
		} else {
			msg.Vals[i] = ev.eval(p)
			noop = false
		}
	}
	return msg, !noop
}

// delta synthesizes the Δ-message value for one slot (P5, Eq. 11): the
// value v such that acc ⊞ new ≃ (acc ⊞ old) ⊞ v, with the §6.4.1 nullary
// tags for multiplicative operators.
func (ev *evaluator) delta(d *ast.Delta) (val float64, isNull, prevNull, noop bool) {
	s := ev.m.prog.Sites[d.Site]
	newV := ev.eval(d.X)
	ev.redirect = ev.m.redirects[s.ID]
	oldV := ev.eval(d.X)
	ev.redirect = nil
	if newV == oldV {
		return core.Identity(s.Op), false, false, true
	}
	switch s.Op {
	case ast.AggSum:
		return newV - oldV, false, false, false
	case ast.AggMin:
		if newV > oldV {
			ev.m.nonMonotone.Add(1)
		}
		return newV, false, false, false
	case ast.AggMax:
		if newV < oldV {
			ev.m.nonMonotone.Add(1)
		}
		return newV, false, false, false
	case ast.AggProd:
		switch {
		case newV == 0:
			return 0, true, false, false
		case oldV == 0:
			lastNN := ev.m.state[ev.base+s.LastNNSlot]
			return newV / lastNN, false, true, false
		default:
			return newV / oldV, false, false, false
		}
	case ast.AggAnd, ast.AggOr:
		abs, _ := core.Absorbing(s.Op)
		if newV == abs {
			return newV, true, false, false
		}
		// newV is the identity and oldV was absorbing.
		return newV, false, true, false
	}
	panic("vm: delta for unknown operator")
}

// tableUpdate implements the §4.2.1 receive path: record each sender's
// latest contribution in the per-neighbour lookup tables of the group's
// sites. A sender with parallel edges to this vertex sends one message per
// edge in the same superstep; those are merged with the site's ⊞, which is
// exactly the sender's total contribution for any commutative-associative
// operator. A fresh superstep's value replaces the cached one (the cache
// update of Fig. 2b).
func (ev *evaluator) tableUpdate(group int) {
	g := ev.m.prog.Groups[group]
	var replaced map[graph.VertexID]bool
	for _, sid := range g.Sites {
		s := ev.m.prog.Sites[sid]
		slotIdx := s.SlotInGroup
		if replaced == nil {
			replaced = make(map[graph.VertexID]bool, 4)
		} else {
			clear(replaced)
		}
		tbl := ev.m.tables[sid][ev.u]
		for i := range ev.msgs {
			msg := &ev.msgs[i]
			if int(msg.Group) != group {
				continue
			}
			if tbl == nil {
				tbl = make(map[graph.VertexID]float64, 4)
				ev.m.tables[sid][ev.u] = tbl
			}
			if replaced[msg.Sender] {
				tbl[msg.Sender] = core.Apply(s.Op, tbl[msg.Sender], msg.Vals[slotIdx])
			} else {
				tbl[msg.Sender] = msg.Vals[slotIdx]
				replaced[msg.Sender] = true
			}
		}
	}
}

// tableFold implements the §4.2.1 aggregation path: refold the entire
// lookup table (the cost the paper calls out as making this approach
// impractical). The fold runs in ascending sender order — never map
// iteration order — so non-associative float accumulation yields the same
// bits on every run and memo-table results stay comparable bitwise against
// the other modes' deterministic schedules.
func (ev *evaluator) tableFold(site int) float64 {
	s := ev.m.prog.Sites[site]
	tbl := ev.m.tables[site][ev.u]
	keys := ev.foldKeys[:0]
	for sender := range tbl { //lint:allow maprange — senders sorted below before folding
		keys = append(keys, sender)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ev.foldKeys = keys
	acc := core.Identity(s.Op)
	for _, sender := range keys {
		acc = core.Apply(s.Op, acc, tbl[sender])
	}
	return acc
}
