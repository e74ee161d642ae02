package core

import (
	"fmt"
	"math"

	"repro/internal/deltav/ast"
)

// Kernels: the lowered idioms an executor may run as one fused loop instead
// of a tree of per-node steps. Each receive and each send of a lowered body
// is classified here, once, from the lowered nodes alone; KernelClosure
// means the node runs as it is lowered. A kernel does the float operations
// of the nodes it replaces, in the same operand order, so its results are
// the nodes' results bit for bit.
//
// Only a program whose messages travel bare (BareOp) has kernels: its one
// group of one slot makes the message the slot's float64, with no group to
// filter on and no tag to set.

// KernelKind is what a receive or a send runs as.
type KernelKind uint8

const (
	// KernelClosure: the node runs as lowered.
	KernelClosure KernelKind = iota
	// KernelFold is an OpRecv whose body is acc = acc ⊕ m.slot0, ⊕ one of
	// +, min and max: one loop over the inbox into field slot Slot.
	KernelFold
	// KernelArc is an OpSendEach whose one slot is an OpDelta or OpFull of
	// an ArcSum x ⊕ w: x is evaluated once per call (the new and the old
	// copy, for a Δ), and one loop over the arcs computes, tests and sends
	// each arc's value.
	KernelArc
)

// Kernel is one receive's or send's classification.
type Kernel struct {
	Kind KernelKind
	// Op is the fold's ⊕, or the ⊞ of the site an arc kernel's slot feeds.
	Op ast.AggOp
	// Slot is a fold's accumulator field slot.
	Slot int32
	// Delta is whether an arc kernel's slot is its site's Δ-message (else
	// its full value), Arc the slot's new value and Old, for a Δ, the
	// weight-free operand of its old value.
	Delta bool
	Arc   ArcSum
	Old   Ref
}

// ArcSum is a value x + w, w + x, x − w or w − x of an arc's weight w and a
// weight-free x.
type ArcSum struct {
	X           Ref  // the weight-free operand
	Sub         bool // − rather than +
	WeightFirst bool // w is the left operand
}

// At evaluates the sum for x and w, in its own operand order.
func (a ArcSum) At(x, w float64) float64 {
	switch {
	case a.WeightFirst && a.Sub:
		return w - x
	case a.WeightFirst:
		return w + x
	case a.Sub:
		return x - w
	}
	return x + w
}

// Dead reports whether the sum is v for every finite w: x is infinite and
// is v once the sum's sign is applied. A send whose slot is ⊞'s identity on
// every arc is a no-op; a graph with a non-finite weight can still break it
// (∞ + (−∞) and ∞ + NaN are NaN), which the caller checks.
func (a ArcSum) Dead(x, v float64) bool {
	if !math.IsInf(x, 0) {
		return false
	}
	if a.WeightFirst && a.Sub {
		x = -x
	}
	return x == v
}

func (a ArcSum) String() string {
	op := "+"
	if a.Sub {
		op = "-"
	}
	if a.WeightFirst {
		return "w " + op + " x"
	}
	return "x " + op + " w"
}

// ArcSum recognises the node at r as an ArcSum.
func (l *Lowered) ArcSum(r Ref) (ArcSum, bool) {
	n := &l.Nodes[r]
	if n.Op != OpAdd && n.Op != OpSub {
		return ArcSum{}, false
	}
	a := ArcSum{X: n.X, Sub: n.Op == OpSub}
	switch {
	case l.Nodes[n.Y].Op == OpWeight:
	case l.Nodes[n.X].Op == OpWeight:
		a.X, a.WeightFirst = n.Y, true
	default:
		return ArcSum{}, false
	}
	return a, !l.Uses(a.X, OpWeight)
}

// BareOp reports the ⊞ a program's messages travel under as a bare float64,
// if any: the program has one send group of one sum, min or max site, and
// it is not a memo-table program, whose receivers need each sender's id.
func (p *Program) BareOp() (ast.AggOp, bool) {
	if len(p.Groups) != 1 || len(p.Groups[0].Sites) != 1 || p.Mode == MemoTable || p.Groups[0].Strategy == StrategyTable {
		return 0, false
	}
	op := p.Sites[p.Groups[0].Sites[0]].Op
	return op, op == ast.AggSum || op == ast.AggMin || op == ast.AggMax
}

// foldOps maps the lowered binary operators a fold may use to their ⊕.
var foldOps = map[Opcode]ast.AggOp{OpAdd: ast.AggSum, OpMin: ast.AggMin, OpMax: ast.AggMax}

// Kernel classifies the OpRecv, OpBroadcast or OpSendEach node at r.
func (p *Program) Kernel(r Ref) Kernel {
	if _, bare := p.BareOp(); !bare {
		return Kernel{}
	}
	l := p.Lowered
	n := &l.Nodes[r]
	switch n.Op {
	case OpRecv:
		// acc = acc ⊕ m.slot0, in that operand order: a sum's NaN operands
		// answer with the left one's payload.
		st := &l.Nodes[n.X]
		if st.Op != OpStore {
			break
		}
		op, ok := foldOps[l.Nodes[st.X].Op]
		fold := &l.Nodes[st.X]
		if ok && l.Nodes[fold.X].Op == OpLoad && l.Nodes[fold.X].A == st.A && l.Nodes[fold.Y].Op == OpMsgVal && l.Nodes[fold.Y].A == 0 {
			return Kernel{Kind: KernelFold, Op: op, Slot: st.A}
		}
	case OpSendEach:
		if len(n.Args) != 1 {
			break
		}
		slot := &l.Nodes[n.Args[0]]
		if slot.Op != OpDelta && slot.Op != OpFull {
			break
		}
		arc, ok := l.ArcSum(slot.X)
		k := Kernel{Kind: KernelArc, Op: p.Sites[slot.A].Op, Delta: slot.Op == OpDelta, Arc: arc, Old: NoRef}
		if k.Delta {
			old, oldOK := l.ArcSum(slot.Y)
			ok = ok && oldOK && old.Sub == arc.Sub && old.WeightFirst == arc.WeightFirst
			k.Old = old.X
		}
		if ok {
			return k
		}
	}
	return Kernel{}
}

var aggNames = map[ast.AggOp]string{ast.AggSum: "sum", ast.AggMin: "min", ast.AggMax: "max"}

func (k Kernel) String() string {
	switch k.Kind {
	case KernelFold:
		return "fold " + aggNames[k.Op]
	case KernelArc:
		slot := "full"
		if k.Delta {
			slot = "Δ"
		}
		return fmt.Sprintf("per-arc %s-%s %s", slot, aggNames[k.Op], k.Arc)
	}
	return "closure"
}

// KernelLines lists every receive and send of the phases' bodies and
// primes, in program order, with what it runs as — the lines dvc prints
// after the compiled program.
func (p *Program) KernelLines() []string {
	var out []string
	l := p.Lowered
	for pi, ph := range l.Phases {
		for _, part := range []struct {
			name string
			root Ref
		}{{"body", ph.Body}, {"prime", ph.Prime}} {
			l.walk(part.root, func(r Ref) {
				n := &l.Nodes[r]
				var what string
				switch n.Op {
				case OpRecv:
					what = fmt.Sprintf("recv group %d", n.A)
				case OpBroadcast, OpSendEach:
					what = fmt.Sprintf("send group %d over %s", n.A, ast.GraphDir(n.B))
				default:
					return
				}
				out = append(out, fmt.Sprintf("phase %d %s: %s: kernel: %s", pi, part.name, what, p.Kernel(r)))
			})
		}
	}
	return out
}
